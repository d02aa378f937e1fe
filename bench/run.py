"""Benchmark of the sqcirc verifier: sweep, long-words and corpus workloads.

Usage, from the root of the repository:

    python3 bench/run.py --workload {sweep,long-words,corpus} --seed N \
        --seconds S --trace {0,1} [--smoke]

The package is imported from src/ (PYTHONPATH=src), each operation process
starts cold, and one operation runs at a time (a closed loop with one
client).  Inputs are made from the seed before timing starts.  A run repeats
whole passes over its inputs until --seconds have gone by, checks every
output against brute-force references and pinned digests, and prints a
human-readable report followed, as the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 gives the
end-to-end metrics; --trace 1 alternates untraced and traced passes and
gives the per-layer metrics, timed by wrapping the package's functions from
bench/tracing.py.  --smoke shrinks every input for a quick self-test.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import math
import os
import platform
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import inputs
import oracle
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
GOLDEN = BENCH / "golden.json"
DEFAULT_SEED = 1

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))

# Per-operation time caps, in seconds: a sweep pass, one long word, one
# corpus unit.  A corpus process also stops after CORPUS_PASS_CAP_S.  No
# operation starts, and every running one is stopped, HARD_STOP_S after the
# run began, so a run ends within 180 s whatever the program does.
CAP_S = {"sweep": 60.0, "long-words": 30.0, "corpus": 10.0}
CORPUS_PASS_CAP_S = 90.0
HARD_STOP_S = 150.0
SETUP_SAMPLES = 11

# The shared host's CPUs switch between a fast state and one about 1.7 times
# slower, for seconds at a time, which moves raw times by more than the
# bounds allow.  So every timed process is pinned to one CPU, bench/monitor.py
# times a fixed probe on that CPU ten times a second, and each measured
# interval is rescaled by the probe's mean speed over it (see HostSpeed).
# PROBE_REFERENCE_S is the probe's time in the fast state of the 2-CPU Xeon
# host described in README.md, so rescaled times read as seconds there.
PROBE_REFERENCE_S = 0.0016
WINDOW_S = 0.3  # probes this long before an interval also count for it

END_TO_END = {
    "setup_s": "s",
    "words_per_s": "words/s",
    "latency_p50_s": "s",
    "latency_p99_s": "s",
    "peak_rss_mib": "MiB",
}
SELF_S = ("cli.main", "verifier.verify_word", "verifier.theorem_check",
          "verifier.json_document", "verifier.corpus_analyze",
          "injection.build_injection", "circuits.circuit_order_ranges",
          "circuits.small_circuits", "squares.distinct_squares",
          "squares.square_classes", "words.complexity_profile")
CALLS = ("circuits.circuit_order_ranges", "squares.match_runs",
         "words.least_rotation", "verifier.verify_word",
         "circuits.small_circuits", "circuits.realize", "circuits.maximal_edge",
         "verifier.theorem_check", "circuits.all_small_circuits",
         "injection.build_injection", "injection.inject_class",
         "squares.distinct_squares", "squares.square_classes",
         "words.complexity_profile")
PER_LAYER = {
    **{f"{name}.self_s": "s/op" for name in SELF_S},
    **{f"{name}.calls": "calls/op" for name in CALLS},
    "circuits.circuit_order_ranges.classes": "count/op",
    "circuits.circuit_order_ranges.canonicalizations": "count/op",
    "circuits.classes_per_canonicalization": "ratio",
    "setup.networkx_import_s": "s",
    "setup.sqcirc_import_s": "s",
    "trace.overhead_ratio": "ratio",
}


# ---------------------------------------------------------------- host speed

class HostSpeed:
    """The probe samples of bench/monitor.py, running for the whole run.

    The work of an interval is the integral of the CPU's speed over it, so
    its reference seconds are its raw seconds times the mean of
    PROBE_REFERENCE_S / probe seconds over the probes that ran in it.  A
    change to the program moves reference seconds as it moves raw ones; the
    host's state cancels.  The monitor takes about 2% of the CPU it shares
    with the timed process, the same share on every run.
    """

    def __init__(self) -> None:
        self.cpu = max(os.sched_getaffinity(0))
        self.monitor = subprocess.Popen(
            [sys.executable, str(BENCH / "monitor.py"), str(self.cpu)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        while not self.samples and self.monitor.poll() is None:
            time.sleep(0.01)
        if not self.samples:
            self.close()
            raise SystemExit("bench: the host-speed monitor did not start")

    def _read(self) -> None:
        for line in self.monitor.stdout:
            t, d = line.split()
            self.samples.append((float(t), float(d)))

    @contextlib.contextmanager
    def pinned(self):
        """Processes started inside inherit the CPU the monitor probes."""
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.cpu})
        try:
            yield
        finally:
            os.sched_setaffinity(0, mask)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per raw second over the perf_counter interval
        start..end."""
        samples, hi = self.samples, len(self.samples)
        lo = bisect.bisect_left(samples, start - WINDOW_S, hi=hi, key=lambda s: s[0])
        hi = bisect.bisect_right(samples, end, lo=lo, hi=hi, key=lambda s: s[0])
        window = samples[lo:hi] or samples[-1:]
        return statistics.fmean(PROBE_REFERENCE_S / d for _, d in window)

    def seconds(self, start: float, end: float) -> float:
        return (end - start) * self.scale(start, end)

    def close(self) -> None:
        self.monitor.kill()
        self.monitor.wait()
        self.reader.join()
        self.monitor.stdout.close()


SPEED: HostSpeed | None = None  # set by main before any operation runs


# ---------------------------------------------------------------- processes

@dataclass
class Proc:
    code: int | None          # None when stopped at the cap
    out: bytes
    err: str
    ready: float | None       # perf_counter when set-up ended
    done: float | None        # perf_counter when the work ended
    line_times: list[float]   # arrival time of each stdout line
    rss_mib: float


def run_child(spec: dict, deadline: float, idle_cap: float | None = None) -> Proc:
    """Run bench/child.py on spec and time it from outside.

    The child is killed at the deadline, or when idle_cap seconds pass
    without a new stdout line.  Its peak resident set comes from wait4.
    The child runs on the CPU the host-speed monitor probes.
    """
    with SPEED.pinned():
        proc = subprocess.Popen(
            [sys.executable, "-u", str(BENCH / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = bytearray(), bytearray()
    line_times: list[float] = []
    ready = done = None
    killed = False
    last = time.perf_counter()
    sel = selectors.DefaultSelector()
    try:
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        while sel.get_map():
            limit = deadline if idle_cap is None else min(deadline, last + idle_cap)
            now = time.perf_counter()
            if now >= limit:
                killed = True
                break
            for key, _ in sel.select(limit - now):
                chunk = os.read(key.fd, 1 << 16)
                now = time.perf_counter()
                if not chunk:
                    sel.unregister(key.fileobj)
                elif key.fileobj is proc.stdout:
                    out += chunk
                    if idle_cap is not None:
                        n = chunk.count(b"\n")
                        line_times.extend([now] * n)
                        last = now if n else last
                else:
                    err += chunk
                    if ready is None and b"#bench ready\n" in err:
                        ready = last = now
                    if done is None and b"#bench done\n" in err:
                        done = now
    finally:
        if killed or sel.get_map():
            proc.kill()
        sel.close()
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(None if killed else proc.returncode, bytes(out),
                err.decode(errors="replace"), ready, done, line_times,
                usage.ru_maxrss / 1024)


def import_seconds() -> float:
    """Reference seconds to import sqcirc and sqcirc.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import sqcirc, sqcirc.cli; "
            "print(t, time.perf_counter())")
    with SPEED.pinned():
        r = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=ENV,
                           capture_output=True, text=True, timeout=10, check=True)
    return SPEED.seconds(*map(float, r.stdout.split()))


def import_breakdown() -> tuple[float, float]:
    """(networkx, rest of sqcirc) cumulative import reference seconds, by
    -X importtime."""
    began = time.perf_counter()
    with SPEED.pinned():
        r = subprocess.run([sys.executable, "-X", "importtime", "-c",
                            "import sqcirc, sqcirc.cli"], cwd=ROOT, env=ENV,
                           capture_output=True, text=True, timeout=10, check=True)
    scale = SPEED.scale(began, time.perf_counter())
    cumulative: dict[str, float] = {}
    for line in r.stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6 * scale
    nx = cumulative.get("networkx", 0.0)
    return nx, cumulative.get("sqcirc", 0.0) + cumulative.get("sqcirc.cli", 0.0) - nx


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def word_key(w: str) -> str:
    return sha256(w.encode())[:16]


def table_digest(summary: dict) -> str:
    return sha256(json.dumps([summary["max_nonempty_squares_per_length"],
                              summary["extremal_witnesses"]]).encode())


# ---------------------------------------------------------------- workloads

@dataclass
class Pass:
    attempted: int
    failed: int = 0
    wrong: int = 0  # operations failed on their output, not on the time cap
    failures: list[str] = field(default_factory=list)
    ok: int = 0
    op_s: float = 0.0
    latencies: dict[str, float] = field(default_factory=dict)  # input -> s
    rss_mib: float = 0.0
    layers: dict = field(default_factory=dict)

    def fail(self, count: int, reason: str, timeout: bool = False) -> None:
        self.failed += count
        self.wrong += 0 if timeout else count
        self.failures.append(f"{count} failed{' (time cap)' if timeout else ''}: {reason}")

    def add_trace(self, path: Path | None) -> None:
        if path is not None and path.exists():
            with open(path) as fh:
                tracing.merge(self.layers, tracing.summarize(json.load(fh)))


class Sweep:
    """exhaustive_search(2, 13) then exhaustive_search(3, 9), jobs=1, in one
    process.  The inputs do not depend on the seed."""

    name = "sweep"
    op = "word"
    latency_of = "one sweep pass (both searches)"

    def __init__(self, seed: int, smoke: bool, golden: dict) -> None:
        self.sizes = inputs.SMOKE_SWEEP if smoke else inputs.SWEEP
        self.golden = golden.get("sweep", {})
        self.reference = {s: oracle.sweep_reference(*s) for s in self.sizes}
        self.words = sum(count for count, _ in self.reference.values())

    def describe(self) -> list[dict]:
        return [{"family": f"canonical-{k}-ary", "max_len": m,
                 "words": self.reference[(k, m)][0]} for k, m in self.sizes]

    def run_pass(self, trace: Path | None, hard_stop: float) -> Pass:
        p = Pass(self.words)
        proc = run_child({"sweep": self.sizes, "trace": trace and str(trace)},
                         min(time.perf_counter() + CAP_S["sweep"], hard_stop))
        if proc.code is None:
            p.fail(self.words, "sweep pass stopped", timeout=True)
            return p
        try:
            summaries = json.loads(proc.out)
        except ValueError:
            p.fail(self.words, f"sweep exit {proc.code}: {proc.err[-300:]}")
            return p
        if proc.code != 0 or proc.done is None or len(summaries) != len(self.sizes):
            p.fail(self.words, f"sweep exit {proc.code}: {proc.err[-300:]}")
            return p
        for (k, m), s in zip(self.sizes, summaries):
            count, best = self.reference[(k, m)]
            reason = self.check(k, m, s, count, best)
            if reason:
                p.fail(count, f"sweep {k},{m}: {reason}")
            else:
                p.ok += count
        p.op_s = SPEED.seconds(proc.ready, proc.done)
        p.latencies["sweep"] = p.op_s
        p.rss_mib = proc.rss_mib
        p.add_trace(trace)
        return p

    def check(self, k, m, s, count, best) -> str | None:
        if s["words_checked"] != count:
            return f"{s['words_checked']} words checked, {count} canonical"
        if s["violations"]:
            return f"violations: {s['violations'][:3]}"
        table = {n: most for n, most in s["max_nonempty_squares_per_length"]}
        if table != best:
            return f"max-squares table {table} != brute force {best}"
        for n, ws in s["extremal_witnesses"]:
            for w in ws:
                if len(w) != n or not oracle.is_canonical(w, k) \
                        or oracle.square_count(w) != best[n]:
                    return f"witness {w!r} of length {n} is wrong"
        pinned = self.golden.get(f"{k},{m}")
        if pinned and pinned != table_digest(s):
            return "max-squares table differs from the pinned digest"
        return None


class LongWords:
    """`sqcirc check WORD --json`, each word in its own fresh process."""

    name = "long-words"
    op = "word"
    latency_of = "one check --json"

    def __init__(self, seed: int, smoke: bool, golden: dict) -> None:
        self.words = inputs.long_words(seed, smoke)
        self.golden = golden.get("check_json", {})
        self.squares = {w.word: oracle.square_count(w.word) for w in self.words}

    def describe(self) -> list[dict]:
        return [{"family": w.family, "length": len(w.word)} for w in self.words]

    def run_pass(self, trace: Path | None, hard_stop: float) -> Pass:
        p = Pass(len(self.words))
        for i, item in enumerate(self.words):
            w = item.word
            if time.perf_counter() >= hard_stop:
                p.fail(len(self.words) - i, "run time exhausted", timeout=True)
                break
            path = trace and trace.with_suffix(f".{i}.json")
            proc = run_child({"argv": ["check", w, "--json"],
                              "op": f"{item.family}:{len(w)}",
                              "trace": path and str(path)},
                             min(time.perf_counter() + CAP_S["long-words"], hard_stop))
            p.rss_mib = max(p.rss_mib, proc.rss_mib)
            if proc.code is None:
                p.fail(1, f"{item.family} n={len(w)} stopped", timeout=True)
                continue
            reason = self.check(w, proc)
            if reason:
                p.fail(1, f"{item.family} n={len(w)}: {reason}")
                continue
            p.ok += 1
            p.op_s += SPEED.seconds(proc.ready, proc.done)
            p.latencies[f"{item.family}:{len(w)}"] = SPEED.seconds(proc.ready, proc.done)
            p.add_trace(path)
        return p

    def check(self, w: str, proc: Proc) -> str | None:
        if proc.done is None:
            return f"exit {proc.code}: {proc.err[-300:]}"
        try:
            doc = json.loads(proc.out)
            th = doc["theorem"]
            squares = self.squares[w]
            bound = len(w) - len(set(w)) + 1
            if doc["word"] != w:
                return "document is about another word"
            if (th["S"], th["bound"]) != (squares + 1, bound):
                return f"S={th['S']} bound={th['bound']}, expected {squares + 1}, {bound}"
            if th["holds"] != (squares + 1 <= bound) or proc.code != (0 if th["holds"] else 3):
                return f"holds={th['holds']} with exit {proc.code}"
            if not len(doc["squares"]) == len(doc["injection"]) == squares:
                return "squares or injection do not list S-1 entries"
            if len(doc["circuits"]) != th["sc_total"]:
                return "circuits do not list sc_total entries"
        except (ValueError, KeyError, TypeError) as exc:
            return f"bad JSON document: {exc!r}"
        pinned = self.golden.get(word_key(w))
        if pinned and pinned != sha256(proc.out):
            return "JSON document differs from the pinned digest"
        return None


class Corpus:
    """`sqcirc corpus FILE --per-line` in one fresh process per pass."""

    name = "corpus"
    op = "unit"
    latency_of = "one corpus unit"

    def __init__(self, seed: int, smoke: bool, golden: dict) -> None:
        self.lines = inputs.corpus_lines(seed, smoke)
        self.path = WORK / f"corpus-{seed}{'-smoke' if smoke else ''}.txt"
        self.path.write_text("\n".join(self.lines) + "\n", encoding="ascii")
        self.expected = []
        for i, line in enumerate(self.lines, 1):
            s = oracle.square_count(line) + 1
            bound = len(line) - len(set(line)) + 1
            verdict = "holds" if s <= bound else "VIOLATED"
            self.expected.append(f"unit {i}: len={len(line)} S={s} bound={bound} "
                                 f"slack={bound - s} {verdict}".encode())

    def describe(self) -> list[dict]:
        lengths: dict[str, list[int]] = {"log-like": [], "random-4": []}
        for u in self.lines:
            lengths["random-4" if set(u) <= set("acgt") else "log-like"].append(len(u))
        return [{"family": f, "units": len(ns), "length": [min(ns), max(ns)]}
                for f, ns in lengths.items()]

    def run_pass(self, trace: Path | None, hard_stop: float) -> Pass:
        units = len(self.expected)
        p = Pass(units)
        proc = run_child({"argv": ["corpus", str(self.path), "--per-line"],
                          "trace": trace and str(trace)},
                         min(time.perf_counter() + CORPUS_PASS_CAP_S, hard_stop),
                         idle_cap=CAP_S["corpus"])
        p.rss_mib = proc.rss_mib
        if proc.ready is None:
            p.fail(units, f"corpus exit {proc.code}: {proc.err[-300:]}",
                   timeout=proc.code is None)
            return p
        lines = proc.out.split(b"\n")
        prev = proc.ready
        for i, want in enumerate(self.expected):
            if i >= len(proc.line_times):
                p.fail(units - i, f"corpus stopped after {i} units",
                       timeout=proc.code is None)
                break
            if lines[i] != want:
                p.fail(1, f"got {lines[i][:80]!r}, expected {want!r}")
            else:
                p.ok += 1
                p.latencies[f"unit {i + 1}"] = SPEED.seconds(prev, proc.line_times[i])
            prev = proc.line_times[i]
        else:
            summary = lines[units] if len(lines) > units else b""
            if proc.code != 0 or not summary.startswith(b"summary: %d units" % units):
                p.fail(p.ok, f"corpus exit {proc.code}: {proc.err[-300:]}")
                p.ok = 0
        p.op_s = SPEED.seconds(proc.ready, prev)
        p.add_trace(trace)
        return p


WORKLOADS = {w.name: w for w in (Sweep, LongWords, Corpus)}


# ---------------------------------------------------------------- reporting

def run_metadata(args) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, env=dict(os.environ, GIT_DIR=str(ROOT / ".git")))
        commit = r.stdout.strip() or commit
    try:
        nx_version = metadata.version("networkx")
    except metadata.PackageNotFoundError:
        nx_version = "absent"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "commit": commit,
            "python": platform.python_version(), "networkx": nx_version,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}


def percentile(samples: list[float], q: int) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def layer_metrics(layers: dict, ops: int) -> dict[str, float]:
    def get(name, key):
        return layers.get(name, {}).get(key, 0) / max(ops, 1)

    m = {f"{name}.self_s": get(name, "self_s") for name in SELF_S}
    m.update({f"{name}.calls": get(name, "calls") for name in CALLS})
    ranges = "circuits.circuit_order_ranges"
    classes, canon = get(ranges, "returned"), get(ranges, "words.least_rotation")
    m[f"{ranges}.classes"] = classes
    m[f"{ranges}.canonicalizations"] = canon
    m["circuits.classes_per_canonicalization"] = classes / canon if canon else 0.0
    return m


def print_layers(layers: dict, ops: int, op_s: float) -> None:
    print(f"traced self time per {ops} operations ({op_s:.3f} s traced op time):")
    spans = sorted((n for n in layers if "self_s" in layers[n]),
                   key=lambda n: -layers[n]["self_s"])
    for name in spans:
        agg = layers[name]
        share = agg["self_s"] / op_s if op_s else 0.0
        print(f"  {name:32s} self {agg['self_s'] / ops:.6f} s/op ({share:6.1%})"
              f"  calls {agg['calls'] / ops:10.3f}/op")
    for name in tracing.COUNTED:
        if name in layers:
            print(f"  {name:32s} calls {layers[name]['calls'] / ops:10.3f}/op")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # A terminated run unwinds, so the finally blocks stop the operation
    # process and the monitor before it exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "sqcirc" / "__init__.py").is_file():
        print(f"bench: no sqcirc package under {SRC}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    hard_stop = start + HARD_STOP_S
    WORK.mkdir(exist_ok=True)
    trace_dir = WORK / "trace"
    shutil.rmtree(trace_dir, ignore_errors=True)
    if args.trace:
        trace_dir.mkdir()

    print("meta:", json.dumps(run_metadata(args)))
    # Digests are keyed by the word itself, so the seed-independent words
    # are pinned on every seed and the random ones on the default seed.
    golden = json.loads(GOLDEN.read_text())
    workload = WORKLOADS[args.workload](args.seed, args.smoke, golden)
    print("inputs:", json.dumps(workload.describe()))

    global SPEED
    SPEED = HostSpeed()
    try:
        return measure(args, workload, trace_dir, hard_stop)
    finally:
        SPEED.close()


def measure(args, workload, trace_dir: Path, hard_stop: float) -> int:
    samples = 2 if args.smoke else SETUP_SAMPLES
    if args.trace:
        breakdown = [import_breakdown() for _ in range(samples)]
    else:
        setup = [import_seconds() for _ in range(samples)]

    passes: list[Pass] = []
    walls: list[float] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        began = time.perf_counter()
        passes.append(workload.run_pass(
            trace_dir / f"pass{len(passes)}.json" if traced else None, hard_stop))
        now = time.perf_counter()
        walls.append(now - began)
        # Whole passes only, so every run measures the same mix of inputs.
        # Start another pass while it would likely end less than half a pass
        # past the deadline.
        if now >= hard_stop or (len(passes) >= 1 + args.trace
                                and now + statistics.median(walls) / 2 > deadline):
            break

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    wrong = sum(p.wrong for p in passes)
    plain = passes[::2] if args.trace else passes
    rates = [p.ok / p.op_s for p in plain if p.op_s > 0]
    words_per_s = statistics.median(rates) if rates else 0.0
    for i, p in enumerate(passes):
        print(f"pass {i}: {'traced' if args.trace and i % 2 else 'untraced'}, "
              f"{p.ok}/{p.attempted} {workload.op}s ok in {p.op_s:.3f} s")
    for reason in [r for p in passes for r in p.failures][:10]:
        print(reason)
    print(f"passes: {len(passes)}, {workload.op}s attempted {attempted}, "
          f"failed {failed}")
    print(f"error_rate = {failed}/{attempted} = {failed / attempted:.6f} ratio")
    probes = [d for _, d in SPEED.samples]
    deciles = statistics.quantiles(probes, n=10)
    print(f"host probe on CPU {SPEED.cpu}: {len(probes)} probes, median "
          f"{statistics.median(probes):.5f} s, deciles 1 and 9 {deciles[0]:.5f} "
          f"and {deciles[-1]:.5f} s; times below are in reference seconds "
          f"(probe = {PROBE_REFERENCE_S} s)")

    if args.trace:
        traced_passes = passes[1::2]
        layers: dict = {}
        for p in traced_passes:
            tracing.merge(layers, p.layers)
        ops = sum(p.ok for p in traced_passes)
        op_s = sum(p.op_s for p in traced_passes)
        traced_rate = ops / op_s if op_s else 0.0
        print_layers(layers, max(ops, 1), op_s)
        metrics = layer_metrics(layers, ops)
        nx_s, pkg_s = (statistics.median(col) for col in zip(*breakdown))
        metrics["setup.networkx_import_s"] = nx_s
        metrics["setup.sqcirc_import_s"] = pkg_s
        metrics["trace.overhead_ratio"] = words_per_s / traced_rate if traced_rate else 0.0
        print(f"tracing overhead: untraced {words_per_s:.4f} vs traced "
              f"{traced_rate:.4f} {workload.op}s/s")
        units = PER_LAYER
    else:
        # Percentiles are taken over each input's median latency across the
        # passes: a single slow pass of the slowest input does not set p99.
        by_input: dict[str, list[float]] = {}
        for p in plain:
            for key, x in p.latencies.items():
                by_input.setdefault(key, []).append(x)
        latencies = [statistics.median(xs) for xs in by_input.values()]
        if len(by_input) <= 12:
            for key, xs in by_input.items():
                print(f"latency {key}: {' '.join(f'{x:.4f}' for x in xs)} s")
        metrics = {
            "setup_s": statistics.median(setup),
            "words_per_s": words_per_s,
            "latency_p50_s": percentile(latencies, 50),
            "latency_p99_s": percentile(latencies, 99),
            "peak_rss_mib": max(p.rss_mib for p in passes),
        }
        units = END_TO_END
        beyond = len(latencies) - math.ceil(0.99 * len(latencies))
        print(f"latency of {workload.latency_of}: medians of {len(latencies)} "
              f"inputs over {len(plain)} passes, {beyond} beyond p99")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
