#!/usr/bin/env python3
"""Run one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe and bin/serve.exe with dune, prints the run's
provenance, runs the workload in a fresh directory under .perfbench/ with
REPRO_JOBS=1, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics (from perfbench/layers.py over the
written spans) with --trace 1.  Exits non-zero, printing no result, when
the build or the run fails.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import layers  # noqa: E402

SURROGATE = "surrogate_n2000_10-9-9-8-8-7-7-6-6-6-5-5-5-4_seed42.txt"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, flush=True)


def capture(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def source_digest(root):
    """SHA-256 over the program and benchmark sources, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in ["lib", "bin", "perfbench", "dune", "dune-project"]:
        base = os.path.join(root, top)
        files = [base] if os.path.isfile(base) else []
        for d, dirs, names in os.walk(base):
            dirs.sort()
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def stub_cflags(root):
    """The C-stub flags: OCaml's own C flags, then the stanza in
    lib/tensor/dune, then the sanitizer include as built."""
    flags = ""
    for line in capture(["ocamlfind", "ocamlopt", "-config"]).splitlines():
        if line.startswith("ocamlc_cflags:"):
            flags = line.split(":", 1)[1].strip()
    dune_file = os.path.join(root, "lib", "tensor", "dune")
    stanza = ""
    if os.path.exists(dune_file):
        text = open(dune_file).read()
        start = text.find("(:standard", text.find("foreign_stubs"))
        if start >= 0:
            stanza = " ".join(text[start + len("(:standard"): text.find("(:include", start)].split())
    sexp = os.path.join(root, "_build", "default", "lib", "tensor", "sanitize_c_flags.sexp")
    extra = open(sexp).read().strip() if os.path.exists(sexp) else "?"
    return "%s %s %s" % (flags, stanza, extra)


def provenance(root):
    if os.path.isdir(os.path.join(root, ".git")):
        commit = capture(["git", "-C", root, "rev-parse", "HEAD"]) or "unknown"
    else:
        commit = "none (not a git checkout)"
    log("provenance: commit %s" % commit)
    log("provenance: source digest %s" % source_digest(root))
    log("provenance: REPRO_JOBS 1")
    log("provenance: nproc %d (affinity %d; the run is pinned to cpu %d)"
        % (os.cpu_count(), len(os.sched_getaffinity(0)), min(os.sched_getaffinity(0))))
    log("provenance: ocaml %s" % (capture(["ocamlfind", "ocamlopt", "-version"]) or "?"))
    log("provenance: stub cflags %s" % stub_cflags(root))
    log("provenance: glibc %s" % (os.confstr("CS_GNU_LIBC_VERSION") or "?"))
    log("provenance: python %s, %s" % (platform.python_version(), platform.platform()))


def build(root):
    cmd = ["dune", "build", "--root", root, "./perfbench/bench.exe", "./bin/serve.exe"]
    try:
        r = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    except (OSError, subprocess.SubprocessError) as e:
        log("build failed: %s" % e)
        return False
    if r.returncode != 0:
        log("build failed: exit %d" % r.returncode)
        return False
    return True


def prepare_workdir(root):
    """A fresh directory for this run: the server's socket, the saved model
    and the surrogate artifact both processes load."""
    work = os.path.join(root, ".perfbench", "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "_artifacts"))
    src = os.path.join(root, "_artifacts", SURROGATE)
    if not os.path.exists(src):
        # a checkout without the committed artifact directory
        src = os.path.join(HERE, "artifacts", SURROGATE)
    shutil.copyfile(src, os.path.join(work, "_artifacts", SURROGATE))
    return work


def run_bench(root, work, args, spans, extra=()):
    exe = os.path.join(root, "_build", "default", "perfbench", "bench.exe")
    serve = os.path.join(root, "_build", "default", "bin", "serve.exe")
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve-exe", serve,
        "--artifacts", "_artifacts",
        "--spans", spans,
        *extra,
    ]
    env = dict(os.environ, REPRO_JOBS="1")
    # One CPU for the bench and the server it spawns: a served round then
    # costs local context switches, not the wake-up of an idle virtual CPU,
    # whose latency the host sets.  Own process group: on a timeout the
    # server goes down with the bench.
    cpu = min(os.sched_getaffinity(0))
    p = subprocess.Popen(
        cmd, cwd=work, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    last = None
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        log("run timed out after %d s" % RUN_TIMEOUT_S)
        return None
    for line in out.splitlines():
        if line.startswith("{"):
            last = line
        else:
            log(line)
    if p.returncode != 0 or last is None:
        log("run failed: exit %d" % p.returncode)
        return None
    return json.loads(last)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1].strip())
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    root = os.getcwd()
    if not build(root):
        return 1
    provenance(root)
    work = prepare_workdir(root)
    spans_dir = os.path.join(root, ".perfbench", "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, "%s-seed%d.tsv" % (args.workload, args.seed))
    try:
        # With --trace 0, set-up time is measured first, in a process of its
        # own: its repeated set-ups would otherwise set the peak RSS.
        setup = run_bench(root, work, args, spans, ["--setup-only"]) if args.trace == 0 else None
        raw = run_bench(root, work, args, spans) if args.trace == 1 or setup else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if raw is None:
        return 1
    if setup:
        raw["metrics"] = dict(setup["metrics"], **raw["metrics"])
        raw["correct"] = raw["correct"] and setup["correct"]
        raw["attempted"] += setup["attempted"]
        raw["failed"] += setup["failed"]
    log("provenance: backend %s" % raw["backend"])
    if args.trace == 1:
        metrics, table = layers.analyse(spans)
        for line in table:
            log(line)
    else:
        metrics = {k: (v["value"], v["unit"]) for k, v in raw["metrics"].items()}
    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
