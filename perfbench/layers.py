#!/usr/bin/env python3
"""Per-layer table from the spans a traced run writes.

    python3 perfbench/layers.py .perfbench/spans/<workload>-seed<n>.tsv ...

Reads only the span file (a `# key=value` header, then tab-separated
id, parent, name, start_ns, end_ns, words), so it runs unchanged on any
later commit.  For each file it prints every unit of work with its layers'
self time per unit and share, the residual no span covers, the tracing
overhead, and the per-layer metrics perfbench/run.py reports.
"""

import statistics
import sys
from collections import defaultdict

# (metric, span name, what to take from the span, unit)
SPAN_METRICS = [
    ("pnn.va_draw_us", "pnn.va_draw", "us", "us"),
    ("pnn.va_draw_words", "pnn.va_draw", "words", "words"),
    ("pnn.noise_draws_us", "pnn.noise_draws", "us", "us"),
    ("pnn.val_loss_us", "pnn.val_loss", "us", "us"),
    ("pnn.eval_draw_us", "pnn.eval_draw", "us", "us"),
    ("pnn.eval_draw_words", "pnn.eval_draw", "words", "words"),
    ("autodiff.refresh_us", "autodiff.refresh", "us", "us"),
    ("autodiff.backward_us", "autodiff.backward", "us", "us"),
    ("nn.adam_step_us", "nn.adam_step", "us", "us"),
    ("surrogate.eval_us", "surrogate.eval", "us", "us"),
    ("tensor.crossbar_matmul_us", "tensor.crossbar_matmul", "us", "us"),
    ("serving.decode_us", "serving.decode", "us", "us"),
    ("serving.batcher_us", "serving.batcher", "us", "us"),
    ("serving.predict_batch_us", "serving.predict_batch", "us", "us"),
    ("serving.predict_mc_us", "serving.predict_mc", "us", "us"),
    ("serving.encode_us", "serving.encode", "us", "us"),
]

# The four in-process serving spans a served predict round is made of;
# what the round costs beyond them is the select loop, syscalls and wake-ups.
ROUND_PARTS = ["serving.decode", "serving.batcher", "serving.predict_batch", "serving.encode"]

# Units of work whose children the table breaks down.
UNITS = ["pnn.epoch", "pnn.eval"]


def read_spans(path):
    meta, spans = {}, []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key] = value
            elif line and not line.startswith("id\t"):
                sid, parent, name, t0, t1, words = line.split("\t")
                spans.append(
                    {
                        "id": int(sid),
                        "parent": int(parent),
                        "name": name,
                        "dur": int(t1) - int(t0),
                        "words": int(words),
                    }
                )
    return meta, spans


def analyse(path):
    """Per-layer metrics {name: (value, unit)} and the printable table."""
    meta, spans = read_spans(path)
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        children[s["parent"]].append(s)

    def med_us(name):
        return statistics.median(s["dur"] for s in by_name[name]) / 1e3

    def self_ns(s):
        return s["dur"] - sum(c["dur"] for c in children[s["id"]])

    metrics = {}
    for metric, name, what, unit in SPAN_METRICS:
        if what == "us":
            metrics[metric] = (med_us(name), unit)
        else:
            metrics[metric] = (statistics.median(s["words"] for s in by_name[name]), unit)
    elems = int(meta["activation_elems"])
    for op in ("tanh", "exp"):
        metrics["tensor.%s_ns_per_elem" % op] = (
            med_us("tensor." + op) * 1e3 / elems,
            "ns",
        )
    metrics["serving.loop_us"] = (
        med_us("serving.round") - sum(med_us(n) for n in ROUND_PARTS),
        "us",
    )
    metrics["serving.batch_occupancy"] = (float(meta["batch_occupancy"]), "req/batch")
    metrics["trace.epoch_residual_us"] = (
        statistics.median(self_ns(s) for s in by_name["pnn.epoch"]) / 1e3,
        "us",
    )
    metrics["trace.eval_residual_us"] = (
        statistics.median(self_ns(s) for s in by_name["pnn.eval"]) / 1e3,
        "us",
    )
    untraced_epoch_us = med_us("ref.fit") / int(meta["traced_epochs"])
    metrics["trace.epoch_overhead"] = (med_us("pnn.epoch") / untraced_epoch_us, "ratio")
    metrics["trace.eval_overhead"] = (med_us("pnn.eval") / med_us("ref.eval"), "ratio")

    lines = [
        "per-layer table: workload %s, seed %s, backend %s"
        % (meta.get("workload"), meta.get("seed"), meta.get("backend"))
    ]
    for unit in UNITS:
        units = by_name[unit]
        n = len(units)
        unit_us = statistics.median(s["dur"] for s in units) / 1e3
        lines.append("  unit %-22s n=%-5d median %10.1f us" % (unit, n, unit_us))
        per_layer = defaultdict(int)
        calls = defaultdict(int)
        for u in units:
            for c in children[u["id"]]:
                per_layer[c["name"]] += c["dur"]
                calls[c["name"]] += 1
        mean_unit = sum(s["dur"] for s in units) / n
        for name in sorted(per_layer, key=lambda k: -per_layer[k]):
            lines.append(
                "    %-26s %6.1f calls/unit %10.1f us/unit %5.1f%%"
                % (name, calls[name] / n, per_layer[name] / n / 1e3, 100 * per_layer[name] / n / mean_unit)
            )
        residual = sum(self_ns(u) for u in units) / n
        lines.append(
            "    %-26s %6s            %10.1f us/unit %5.1f%%"
            % ("(residual)", "", residual / 1e3, 100 * residual / mean_unit)
        )
    lines.append(
        "  unit %-22s n=%-5d median %10.1f us"
        % ("serving.round", len(by_name["serving.round"]), med_us("serving.round"))
    )
    for name in ROUND_PARTS:
        lines.append("    %-26s %10.1f us" % (name, med_us(name)))
    lines.append("    %-26s %10.1f us" % ("(loop: residual)", metrics["serving.loop_us"][0]))
    lines.append(
        "  tracing overhead: epoch %.3fx, eval %.3fx (traced unit / untraced unit)"
        % (metrics["trace.epoch_overhead"][0], metrics["trace.eval_overhead"][0])
    )
    lines.append("  metrics:")
    for k in sorted(metrics):
        lines.append("    %-28s %14.4f %s" % (k, metrics[k][0], metrics[k][1]))
    return metrics, lines


def main(paths):
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for p in paths:
        print("\n".join(analyse(p)[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
