"""Self-test of the benchmark on tiny inputs.

Usage, from the root of the repository: python3 bench/selftest.py

Runs every workload in smoke mode, untraced and traced, and checks the
result line against BENCHMARK.json, the call counts the traced run must
show, the brute-force reference, and that the benchmark refuses to run
without the package.  Exits 0 when everything holds.
"""
import json
import shutil
import subprocess
import sys

from oracle import canonical_words, is_canonical, square_count
from run import BENCH, ROOT, WORK

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# calls per operation that the traced run must show on the unchanged program
EXPECTED_CALLS = {
    "sweep": {"squares.distinct_squares.calls": 2, "verifier.verify_word.calls": 1},
    "long-words": {"circuits.circuit_order_ranges.calls": 5,
                   "verifier.theorem_check.calls": 2,
                   "injection.build_injection.calls": 1},
    "corpus": {"circuits.circuit_order_ranges.calls": 1,
               "verifier.theorem_check.calls": 1},
}


def bench(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_oracle() -> None:
    assert square_count("aababa") == 3  # aa, abab, baba
    assert square_count("abaaba") == 2  # aa, abaaba
    assert square_count("abc") == 0
    assert square_count("a" * 9) == 4
    words = list(canonical_words(3, 4))
    assert len(words) == 14 and all(is_canonical(w, 3) for w in words)
    assert not is_canonical("ba", 2) and not is_canonical("abc", 2)


def check_workload(workload: str, trace: int) -> None:
    r = bench(workload, trace)
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, r.stdout
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {name: v["unit"] for name, v in result["metrics"].items()}, result["metrics"]
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), (name, v)
        if not trace:
            assert v["value"] > 0, (name, v)
    if trace:
        for name, calls in EXPECTED_CALLS[workload].items():
            assert result["metrics"][name]["value"] == calls, (workload, name, result["metrics"][name])


def check_refuses_without_package() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        r = bench("sweep", 0, cwd=bare)
        assert r.returncode != 0 and '"metrics"' not in r.stdout, r.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    check_oracle()
    for workload in EXPECTED_CALLS:
        for trace in (0, 1):
            check_workload(workload, trace)
            print(f"ok: {workload} --trace {trace}")
    check_refuses_without_package()
    print("ok: refuses to run without src/sqcirc")
    return 0


if __name__ == "__main__":
    sys.exit(main())
