"""One fresh process of a benchmark workload.

Usage: python3 perfbench/child.py '<json spec>'

The spec is {"cli": [argv...]} to call the installed entry point
`uhsl2.cli.main`, {"dfun": [[kind, twice_spin, order, route], ...]} to call
`uhsl2.slh2` directly, or {} to stop after the import.  With "trace": PATH
the package is wrapped by perfbench/tracer.py and the trace is written to
PATH.  The monotonic clock reading right after `import uhsl2.cli` goes to
stderr on a line starting with READY, so the parent can time set-up.
"""

import hashlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import uhsl2.cli  # noqa: E402

READY = time.monotonic()


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_dfun(calls):
    """Run dfunction / coalgebra calls; print one JSON line per call."""
    from uhsl2 import slh2
    from uhsl2.scalar import HalfInt

    for kind, twice, order, route in calls:
        j = HalfInt(twice)
        if kind == "dfunction":
            d = slh2.dfunction(j, order, route)
            entries = {f"{k},{m}": digest(e.to_json()) for (k, m), e in d.items()}
            result = {"entries": entries}
        else:
            ok, detail = slh2.dfunction_coalgebra_check(j, order)
            result = {"ok": ok, "detail": detail, "checked": (twice + 1) ** 2}
        print(json.dumps({"call": [kind, twice, order, route], **result},
                         sort_keys=True))
    return 0


def main():
    spec = json.loads(sys.argv[1])
    tracer = None
    if "trace" in spec:
        sys.path.insert(0, HERE)
        from tracer import Tracer

        tracer = Tracer().install(uhsl2)
    rc = 0
    if "cli" in spec:
        rc = uhsl2.cli.main(spec["cli"])
    elif "dfun" in spec:
        rc = run_dfun(spec["dfun"])
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(spec["trace"])
    print(f"READY {READY!r}", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
