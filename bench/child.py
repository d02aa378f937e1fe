"""Run one benchmark process: import sqcirc, then one sweep or one CLI call.

Usage: python3 bench/child.py SPEC_JSON, with PYTHONPATH pointing at src.
SPEC_JSON holds "sweep" (a list of [alphabet size, max length]) or "argv"
(arguments for sqcirc.cli.main), and "trace" (a path for the span records,
or null).  The parent times the process from outside: "#bench ready" on
stderr marks the end of set-up and "#bench done" the end of the work.
"""
import json
import sys


def main() -> int:
    spec = json.loads(sys.argv[1])
    import sqcirc.cli
    import sqcirc.verifier

    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer(op=spec.get("op"))
        tracer.install()
    print("#bench ready", file=sys.stderr, flush=True)
    if "sweep" in spec:
        summaries = []
        for k, max_len in spec["sweep"]:
            s = sqcirc.verifier.exhaustive_search(k, max_len, jobs=1)
            summaries.append({
                "alphabet_size": s.alphabet_size,
                "max_len": s.max_len,
                "words_checked": s.words_checked,
                "violations": list(s.violations),
                "max_nonempty_squares_per_length": s.max_nonempty_squares_per_length,
                "extremal_witnesses": s.extremal_witnesses,
            })
        sys.stdout.write(json.dumps(summaries))
        code = 0
    else:
        code = sqcirc.cli.main(spec["argv"])
    sys.stdout.flush()
    print("#bench done", file=sys.stderr, flush=True)
    if tracer:
        tracer.dump(spec["trace"])
    return code


if __name__ == "__main__":
    sys.exit(main())
