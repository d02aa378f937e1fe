"""Write bench/golden.json: digests of outputs the benchmark pins.

Usage, from the root of the repository: python3 bench/pin_digests.py

Pins the `check --json` document of every long-words word of the default
seed and the max-squares table of every sweep search, at full and smoke
sizes, after checking each against the brute-force references.  The
documented outputs are meant to stay byte-identical, so pin again only when
the benchmark's inputs change.
"""
import json
import sys
import time

import inputs
from run import (DEFAULT_SEED, GOLDEN, WORK, LongWords, Sweep, run_child, sha256,
                 table_digest, word_key)


def main() -> int:
    WORK.mkdir(exist_ok=True)
    golden = {"check_json": {}, "sweep": {}}
    for smoke in (False, True):
        words = LongWords(DEFAULT_SEED, smoke, {})
        for item in words.words:
            proc = run_child({"argv": ["check", item.word, "--json"], "trace": None},
                             time.perf_counter() + 120)
            reason = words.check(item.word, proc)
            if reason:
                print(f"{item.family} n={len(item.word)}: {reason}", file=sys.stderr)
                return 1
            golden["check_json"][word_key(item.word)] = sha256(proc.out)
        sweep = Sweep(DEFAULT_SEED, smoke, {})
        proc = run_child({"sweep": sweep.sizes, "trace": None}, time.perf_counter() + 120)
        for (k, m), s in zip(sweep.sizes, json.loads(proc.out)):
            reason = sweep.check(k, m, s, *sweep.reference[(k, m)])
            if reason:
                print(f"sweep {k},{m}: {reason}", file=sys.stderr)
                return 1
            golden["sweep"][f"{k},{m}"] = table_digest(s)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
