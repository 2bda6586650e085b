#!/usr/bin/env python3
"""The repository benchmark, as one command run from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

It builds the benchmark (perfbench/bench.exe) and the `ephemeral` binary
from source with dune, runs one measurement, checks the result document
with a strict reader, writes it to _perfbench/results/ and prints it as
the last line of standard output.  Workloads and metrics are defined in
BENCHMARK.json; --trace 0 reports its end_to_end metrics, --trace 1 its
per_layer metrics and writes a span trace to _perfbench/traces/.

Any failure exits non-zero without printing a result and without leaving
a results file for that run.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = "_perfbench"
BENCH_EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
SERVE_EXE = os.path.join("_build", "default", "bin", "main.exe")
SOURCES = ["dune-project", "bin/main.ml", "lib", "perfbench/dune", "perfbench/bench.ml"]
BUILD_TIMEOUT_S = 850


def run_timeout(seconds):
    """A run measures for `seconds` over five fresh processes, each of
    which then checks its trials (about 0.4 of the measuring time in
    all), and sets up six more; a traced run adds reference trials and
    probe servers (about 15 s).  Twice the measuring time plus a minute
    holds all of it with room to spare."""
    return 2 * seconds + 60


class Invalid(Exception):
    pass


def die(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_definition():
    with open("BENCHMARK.json") as f:
        return json.load(f)


# ---- the strict reader ---------------------------------------------------

def _no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise Invalid("duplicate key in " + repr(keys))
    return dict(pairs)


def _reject_constant(name):
    raise Invalid("non-finite number " + name)


def parse_result(text, metrics):
    """Parse one result document and check it against [metrics], a dict
    of metric name -> unit that must be reported exactly."""
    try:
        doc = json.loads(text, object_pairs_hook=_no_duplicates,
                         parse_constant=_reject_constant)
    except ValueError as e:
        raise Invalid("not one JSON document: %s" % e)
    if not isinstance(doc, dict):
        raise Invalid("result is not an object")
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        raise Invalid("result keys are %s" % sorted(doc))
    if doc["correct"] is not True:
        raise Invalid("correct is not true")
    for key in ("attempted", "failed"):
        if type(doc[key]) is not int or doc[key] < 0:
            raise Invalid("%s is not a whole number" % key)
    if doc["attempted"] < 1 or doc["failed"] > doc["attempted"]:
        raise Invalid("attempted %d, failed %d" % (doc["attempted"], doc["failed"]))
    got = doc["metrics"]
    if not isinstance(got, dict) or set(got) != set(metrics):
        raise Invalid("metrics differ: missing %s, unexpected %s" % (
            sorted(set(metrics) - set(got or {})), sorted(set(got or {}) - set(metrics))))
    for name, m in got.items():
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            raise Invalid("metric %s is malformed" % name)
        v = m["value"]
        if type(v) not in (int, float) or not math.isfinite(v):
            raise Invalid("metric %s has value %r" % (name, v))
        if m["unit"] != metrics[name]:
            raise Invalid("metric %s has unit %r, expected %r" % (name, m["unit"], metrics[name]))
    return doc


def write_result(path, doc):
    """Publish atomically: a reader never sees a partial results file."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write(json.dumps(doc) + "\n")
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def read_result(path, metrics):
    with open(path) as f:
        text = f.read()
    if not text.endswith("\n") or "\n" in text[:-1]:
        raise Invalid("results file is not exactly one line")
    return parse_result(text, metrics)


# ---- build and run -------------------------------------------------------

def check_sources():
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        die(2, "not a source checkout (missing %s)" % ", ".join(missing))
    if shutil.which("dune") is None:
        die(2, "dune is not on PATH")


def build():
    # No shared dune cache: the build reads and writes only the checkout.
    cmd = ["dune", "build", "--root", ".", "--cache=disabled",
           "./perfbench/bench.exe", "./bin/main.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(3, "build timed out")
    if r.returncode != 0:
        die(3, "build failed")
    for exe in (BENCH_EXE, SERVE_EXE):
        if not os.path.exists(exe):
            die(3, "build produced no " + exe)


def commit():
    """HEAD of the checkout, when it is a git work tree of its own; git is
    kept from looking above the checkout."""
    if not os.path.exists(".git"):
        return "not-a-git-checkout"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def run_bench(args):
    """Run the benchmark in its own process group, so that a timeout
    stops it together with every server and child it started."""
    cmd = [BENCH_EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-exe", SERVE_EXE, "--out", OUT, "--commit", commit()]
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)

    def stop(signum, _frame):
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        die(128 + signum, "stopped by signal %d" % signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    timeout = run_timeout(args.seconds)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        die(4, "run exceeded %d s" % timeout)
    finally:
        # Nothing the run started may outlive it.
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if p.returncode != 0 or not lines:
        die(1, "run failed (exit %d)" % p.returncode)
    return lines[-1]


def measure(args):
    definition = load_definition()
    if args.workload not in [w["name"] for w in definition["workloads"]]:
        die(2, "unknown workload %s" % args.workload)
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: m["unit"] for m in definition[kind]}
    path = os.path.join(OUT, "results", "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    if os.path.exists(path):
        os.remove(path)
    check_sources()
    build()
    line = run_bench(args)
    try:
        doc = parse_result(line, metrics)
        write_result(path, doc)
        if read_result(path, metrics) != doc:
            raise Invalid("results file does not round-trip")
    except Invalid as e:
        if os.path.exists(path):
            os.remove(path)
        die(5, "invalid result: %s" % e)
    print(json.dumps(doc))


# ---- self-tests ----------------------------------------------------------

def self_test():
    check_sources()
    build()
    failures = 0
    r = subprocess.run([BENCH_EXE, "--self-test"])
    if r.returncode != 0:
        failures += 1
    metrics = {"a_ms": "ms", "b": "count"}
    good = {"correct": True, "attempted": 3, "failed": 1,
            "metrics": {"a_ms": {"value": 1.25, "unit": "ms"}, "b": {"value": 7, "unit": "count"}}}
    path = os.path.join(OUT, "selftest", "result.json")

    def expect(name, ok):
        nonlocal failures
        print("%s %s" % ("ok  " if ok else "FAIL", name))
        if not ok:
            failures += 1

    write_result(path, good)
    expect("results file round-trips through the strict reader", read_result(path, metrics) == good)
    text = json.dumps(good)

    def rejected(doc_text):
        try:
            parse_result(doc_text, metrics)
            return False
        except Invalid:
            return True

    def mutated(f):
        d = json.loads(text)
        f(d)
        return json.dumps(d)

    expect("duplicate key rejected", rejected(text[:-1] + ', "failed": 1}'))
    expect("extra top-level key rejected", rejected(mutated(lambda d: d.update(extra=1))))
    expect("missing metric rejected", rejected(mutated(lambda d: d["metrics"].pop("b"))))
    expect("unexpected metric rejected",
           rejected(mutated(lambda d: d["metrics"].update(c={"value": 1, "unit": "ms"}))))
    expect("wrong unit rejected", rejected(mutated(lambda d: d["metrics"]["a_ms"].update(unit="s"))))
    expect("NaN rejected", rejected(text.replace("1.25", "NaN")))
    expect("string value rejected", rejected(mutated(lambda d: d["metrics"]["b"].update(value="7"))))
    expect("boolean count rejected", rejected(mutated(lambda d: d.update(attempted=True))))
    expect("nothing attempted rejected", rejected(mutated(lambda d: d.update(attempted=0, failed=0))))
    expect("more failed than attempted rejected", rejected(mutated(lambda d: d.update(failed=4))))
    expect("incorrect run rejected", rejected(mutated(lambda d: d.update(correct=False))))
    expect("trailing garbage rejected", rejected(text + " x"))
    with open(path, "a") as f:
        f.write(text + "\n")
    try:
        read_result(path, metrics)
        expect("two-line results file rejected", False)
    except Invalid:
        expect("two-line results file rejected", True)
    shutil.rmtree(os.path.join(OUT, "selftest"))
    print("self-test passed" if failures == 0 else "self-test: %d failure(s)" % failures)
    return 1 if failures else 0


def main():
    os.chdir(ROOT)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.exists("BENCHMARK.json"):
        die(2, "no BENCHMARK.json at " + ROOT)
    measure(args)


if __name__ == "__main__":
    main()
