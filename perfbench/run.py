"""Benchmark of uhsl2: cold, fresh-process runs of three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload in turn
    python3 perfbench/run.py --smoke ...           # same path, tiny bounds
    python3 perfbench/run.py --record              # rewrite expected.json

Run it from the root of a source checkout.  Each sample is a fresh child
process (perfbench/child.py), one at a time: a closed loop with one client.
The seed only fixes the order of independent calls inside a workload.
With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs the
workload once plain and once wrapped by perfbench/tracer.py and prints the
per-layer metrics.  The last line of stdout is the result as JSON; a full
record goes to .perfbench/ in the checkout.  See perfbench/README.md.
"""

import argparse
import compileall
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
EXPECTED = os.path.join(HERE, "expected.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("verify-default", "dfun-tower", "reps-tower")
REPS_SUITES = ("twist", "hopf", "coupled-basis", "ohn", "properties")
SUITES = ("twist", "hopf", "coupled-basis", "recoupling", "ohn", "symplecton",
          "h-symplecton", "examples", "product-law", "generating-functions",
          "slh2", "dfunctions", "properties")

SETUP_PROBES = 5        # import-only children before and after the samples
DEADLINE_S = 170.0      # a run must end well inside 180 s

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s",
    "peak_rss_mb": "MiB", "items_per_s": "1/s",
}
PER_LAYER = {
    **{f"cli.suite.{name}.s": "s" for name in SUITES},
    "symplecton.product_oracle.calls": "count",
    "symplecton.product_oracle.distinct": "count",
    "symplecton.product_oracle.s": "s",
    "symplecton.decompose_twisted.calls": "count",
    "symplecton.decompose_twisted.s": "s",
    "symplecton.self_s": "s",
    "weyl.mul.calls": "count", "weyl.mul.s": "s",
    "weyl.h_symplecton.calls": "count", "weyl.h_symplecton.distinct": "count",
    "weyl.self_s": "s",
    "scalar.series_mul.calls": "count", "scalar.series_add.calls": "count",
    "scalar.radical_mul.calls": "count", "scalar.radical_add.calls": "count",
    "scalar.self_s": "s",
    "slh2.normal_form.calls": "count", "slh2.normal_form.s": "s",
    "slh2.presentations_built": "count", "slh2.dfunction.s": "s",
    "slh2.self_s": "s",
    "reps.matmul.calls": "count", "reps.matmul.s": "s",
    "reps.exp_nilpotent.calls": "count", "reps.inverse_unipotent.calls": "count",
    "reps.self_s": "s",
    "su2data.cgc.calls": "count", "su2data.self_s": "s",
    **{f"{m}.{k}": u for m in ("weyl", "su2data", "slh2", "reps")
       for k, u in (("cache_hit_ratio", "1"), ("cache_misses", "count"))},
    "trace.overhead_ratio": "1",
}


# ----------------------------------------------------------------------
# workloads: the seed-generated input of the child, and its checker


def make_spec(workload, seed, smoke):
    """The child's input.  The seed shuffles only independent calls."""
    rng = random.Random(seed)
    if workload == "verify-default":
        # The seed is unused: the report must stay byte-identical.
        return {"cli": ["verify", "--format", "json"]
                + (["--max-spin", "1"] if smoke else [])}
    if workload == "reps-tower":
        suites = list(REPS_SUITES)
        rng.shuffle(suites)
        argv = ["verify", "-H", "16", "--max-spin", "1" if smoke else "4"]
        for name in suites:
            argv += ["--suite", name]
        return {"cli": argv + ["--format", "json"]}
    spins = (1, 2) if smoke else (1, 2, 3, 4)          # twice the spin
    calls = [["dfunction", t, 8, route] for t in spins
             for route in ("plane", "symplecton")]
    rng.shuffle(calls)
    return {"dfun": calls + [["coalgebra", 2 if smoke else 3, 8, None]]}


def _digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def summarize(workload, stdout):
    """Map each verified item of the output to a digest.

    Verify rows are items; a reps-tower row is keyed by what it checks, so
    the seed's suite order does not matter.  In dfun-tower an item is a
    matrix entry built or checked.  Raises ValueError on unreadable output.
    """
    items = {}
    if workload == "dfun-tower":
        for line in stdout.decode().splitlines():
            rec = json.loads(line)
            call = ",".join(str(x) for x in rec["call"])
            if "entries" in rec:
                for entry, dig in rec["entries"].items():
                    items[f"{call}/{entry}"] = dig
            else:
                for i in range(rec["checked"]):
                    items[f"{call}/{i}"] = _digest([rec["ok"], rec["detail"]])
        return items
    report = json.loads(stdout)
    for i, row in enumerate(report["rows"]):
        key = (i if workload == "verify-default" else
               _digest([row["suite"], row["check"], row["params"]]))
        if key in items:
            raise ValueError(f"duplicate row {row}")
        items[str(key)] = _digest(row) if row["pass"] else "failed"
    return items


def check(workload, sample, expected):
    """Attempted and failed items of one child; a crash fails them all."""
    want = expected["items"]
    attempted = len(want)
    if sample["rc"] != 0 or sample["setup"] is None:
        return attempted, attempted
    if "stdout_sha256" in expected and \
            hashlib.sha256(sample["stdout"]).hexdigest() != expected["stdout_sha256"]:
        return attempted, attempted
    try:
        got = summarize(workload, sample["stdout"])
    except (ValueError, KeyError, TypeError):
        return attempted, attempted
    bad = sum(1 for k, v in want.items() if got.get(k) != v)
    bad += len(set(got) - set(want))
    return attempted, min(attempted, bad)


# ----------------------------------------------------------------------
# child processes


def spawn(spec, deadline):
    """Run one child to its end; times, rusage, exit code and output."""
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, CHILD, json.dumps(spec)], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(max(1.0, deadline - start), proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    ready = [line for line in err.decode(errors="replace").splitlines()
             if line.startswith("READY ")]
    return {"wall": end - start,
            "setup": float(ready[-1].split()[1]) - start if ready else None,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "rc": proc.returncode, "stdout": out,
            "stderr_tail": err.decode(errors="replace")[-2000:]}


def environment(seed):
    return {"python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_1m_start": os.getloadavg()[0],
            "commit": commit_hash(), "seed": seed}


def commit_hash():
    """HEAD of the checkout if it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


# ----------------------------------------------------------------------
# one run of one workload


def run_workload(workload, seed, seconds, trace, smoke, expected):
    """Measure one workload; returns the record whose metrics are printed."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    env = environment(seed)
    spec = make_spec(workload, seed, smoke)
    want = expected[workload]["smoke" if smoke else "full"]
    probes = [spawn({}, deadline) for _ in range(SETUP_PROBES)]
    if any(p["rc"] != 0 or p["setup"] is None for p in probes):
        raise RuntimeError("the program does not import:\n"
                           + probes[0]["stderr_tail"])
    samples, trace_record = [], None
    measure_start = time.monotonic()
    while True:
        samples.append(spawn(spec, deadline))
        elapsed = time.monotonic() - measure_start
        if trace or elapsed + samples[-1]["wall"] > seconds:
            break
    probes += [spawn({}, deadline) for _ in range(SETUP_PROBES)]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
        samples.append(spawn({**spec, "trace": trace_path}, deadline))
        if os.path.exists(trace_path):
            with open(trace_path) as fh:
                trace_record = json.load(fh)
    attempted = failed = 0
    for s in samples:
        a, f = check(workload, s, want)
        s["attempted"], s["failed"] = a, f
        attempted += a
        failed += f
    plain = [s for s in (samples[:-1] if trace else samples)
             if s["setup"] is not None]
    metrics = {}
    if plain:
        metrics = {
            "setup_s": statistics.median(
                [p["setup"] for p in probes if p["setup"] is not None]
                + [s["setup"] for s in plain]),
            "wall_s": statistics.median(s["wall"] for s in plain),
            "cpu_s": statistics.median(s["cpu"] for s in plain),
            "peak_rss_mb": statistics.median(s["rss_mb"] for s in plain),
            "items_per_s": statistics.median(
                s["attempted"] / (s["wall"] - s["setup"]) for s in plain),
        }
    claims = {}
    if trace:
        if trace_record is None or not plain:
            raise RuntimeError("the traced child wrote no trace:\n"
                               + samples[-1]["stderr_tail"])
        layers = trace_record["layers"]
        layers["trace.overhead_ratio"] = samples[-1]["wall"] / plain[0]["wall"]
        metrics = layers
        claims = profile_claims(workload, layers, trace_record["traced_s"])
    env["loadavg_1m_end"] = os.getloadavg()[0]
    return {"workload": workload, "smoke": smoke, "seconds": seconds,
            "trace": trace, "environment": env, "argv_or_calls": spec,
            "samples": [{k: v for k, v in s.items() if k != "stdout"}
                        for s in samples],
            "setup_probes": [p["setup"] for p in probes],
            "attempted": attempted, "failed": failed,
            "metrics": metrics, "profile_claims": claims,
            "elapsed_s": time.monotonic() - start}


def profile_claims(workload, layers, traced_s):
    """The profile facts the ROADMAP states, checked against the trace."""
    claims = {}
    suites = {k: v for k, v in layers.items() if k.startswith("cli.suite.")}
    total = sum(suites.values())
    if workload == "verify-default" and total:
        top = max(suites, key=suites.get)
        claims["product-law is the largest suite"] = top == "cli.suite.product-law.s"
        claims["product-law share of suite time"] = \
            layers["cli.suite.product-law.s"] / total
    calls = layers["symplecton.product_oracle.calls"]
    if calls:
        claims["product_oracle calls exceed distinct inputs"] = \
            calls > layers["symplecton.product_oracle.distinct"]
    ops = {k: layers[k] for k in ("slh2.normal_form.s", "reps.matmul.s",
                                  "weyl.mul.s", "symplecton.product_oracle.s")}
    top = max(ops, key=ops.get)
    claims["largest traced operation"] = top
    claims["its share of the traced run"] = ops[top] / traced_s
    return claims


# ----------------------------------------------------------------------
# output


def report(record):
    """Print the human summary, then the result line; returns the result."""
    units = PER_LAYER if record["trace"] else END_TO_END
    metrics = record["metrics"]
    n = len([s for s in record["samples"] if s["setup"] is not None])
    print(f"# {record['workload']}{' (smoke)' if record['smoke'] else ''}: "
          f"{n} fresh-process samples, {len(record['setup_probes'])} import probes")
    print("# environment " + json.dumps(record["environment"], sort_keys=True))
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name} = {metrics[name]:.6g} {unit}")
    ratio = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    print(f"  fail_ratio = {ratio:.6g} 1  ({record['failed']} of "
          f"{record['attempted']} items)")
    for claim, value in record["profile_claims"].items():
        print(f"  claim: {claim}: {value}")
    missing = [name for name in units if name not in metrics]
    return {"correct": not missing and record["failed"] == 0
            and record["attempted"] > 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items() if name in metrics}}


def save(record):
    os.makedirs(OUT_DIR, exist_ok=True)
    name = (f"{record['workload']}-seed{record['environment']['seed']}"
            f"-trace{int(record['trace'])}{'-smoke' if record['smoke'] else ''}.json")
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


def record_expected():
    """Record the outputs of this commit as the reference for every gate."""
    expected = {}
    deadline = time.monotonic() + 3600
    for workload in WORKLOADS:
        expected[workload] = {}
        for size, smoke in (("full", False), ("smoke", True)):
            sample = spawn(make_spec(workload, 0, smoke), deadline)
            if sample["rc"] != 0:
                raise RuntimeError(f"{workload} failed:\n{sample['stderr_tail']}")
            items = summarize(workload, sample["stdout"])
            if "failed" in items.values():
                raise RuntimeError(f"{workload} has failing rows")
            want = {"items": items}
            if workload == "verify-default":
                want["stdout_sha256"] = hashlib.sha256(sample["stdout"]).hexdigest()
            expected[workload][size] = want
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny bounds, for the benchmark's own test")
    parser.add_argument("--record", action="store_true",
                        help="rewrite perfbench/expected.json from this commit")
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "uhsl2", "cli.py")):
        print(f"error: no uhsl2 sources under {src}", file=sys.stderr)
        return 2
    compileall.compile_dir(src, quiet=1)
    if args.record:
        record_expected()
        return 0
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  args.smoke, expected)
            save(record)
            results[name] = report(record)
            if len(names) > 1:
                print(json.dumps(results[name], sort_keys=True))
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(names) > 1:
        results = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()}}
    else:
        results = results[names[0]]
    print(json.dumps(results, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
