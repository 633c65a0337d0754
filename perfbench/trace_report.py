#!/usr/bin/env python3
"""Metrics from e2e_bench run directories (run.json + spans.tsv).

usage: python3 perfbench/trace_report.py TRACED_DIR [UNTRACED_DIR]

Prints every per-layer metric of a traced run, each layer's self-time
share of the editor op, and, given the untraced run of the same workload
and seed, trace.overhead_frac. Keep run directories with
`run.py --keep`. run.py computes the benchmark's result from the same
functions.

Span names: op.save / op.open (editor round trips in the measurement
window), phase.open (cold opens after the window, for workloads whose
window has none), verify.open (the end-of-run gate's opens after a ring
restart), handler.<kind> (the provider's ShardRouter::handle) and
store.<put|get>.<record|audit|tenant> (Store calls under a handler).
"""

import json
import statistics
import sys
from pathlib import Path

END_TO_END_UNITS = {
    "save_p50_ms": "ms",
    "save_p95_ms": "ms",
    "open_p50_ms": "ms",
    "open_p95_ms": "ms",
    "ops_per_s": "1/s",
    "ok_ratio": "ratio",
    "wire_up_bytes_per_op": "B/op",
    "wire_down_bytes_per_op": "B/op",
    "stored_bytes_per_char": "B/char",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "proxy.side_ms.save.p50": "ms",
    "proxy.side_ms.open.p50": "ms",
    "provider.inflight_mean": "count",
    "router.save_ms.p50": "ms",
    "router.open_ms.p50": "ms",
    "router.self_ms.p50": "ms",
    "store.record_puts_per_save": "count",
    "store.audit_puts_per_save": "count",
    "store.tenant_puts_per_save": "count",
    "store.put_ms.p50": "ms",
    "store.put_bytes_per_save": "B",
    "store.share_of_router": "ratio",
    "mediator.upstream_calls_per_op": "count",
    "mediator.journal_appends_per_save": "count",
    "mediator.audit_links_per_save": "count",
    "mediator.witnesses_per_save": "count",
    "mediator.chain_retries": "count",
    "mediator.bdelta_hit_ratio": "ratio",
    "mediator.bdelta_fallbacks": "count",
    "mediator.bdelta_bytes_per_save": "B",
    "mediator.opens_decrypted_per_op": "count",
    "net.connects_per_op": "count",
    "net.rejected_busy": "count",
    "net.dropped": "count",
    "net.retries": "count",
    "router.rejections": "count",
    "self_share.proxy": "ratio",
    "self_share.router": "ratio",
    "self_share.store": "ratio",
    "trace.overhead_frac": "ratio",
}

# Counters whose every increment is a refused or lost request.
REJECTION_COUNTERS = (
    "router.bad_requests",
    "router.quota_rejections",
    "router.handoff_rejections",
    "router.down_rejections",
    "tenant.doc_rejections",
    "tenant.byte_rejections",
    "provider_http.rejected_busy",
    "provider_http.dropped",
    "provider_http.rejected_admission",
    "provider_http.write_failures",
    "editor_net.giveups",
    "mediator.requests_blocked",
)


class Run:
    def __init__(self, directory):
        directory = Path(directory)
        info = json.loads((directory / "run.json").read_text())
        self.workload = info["workload"]
        self.setup_s = info["setup_s"]
        self.window_start = info["window_start_ns"]
        self.deadline = info["deadline_ns"]
        self.window_end = info["window_end_ns"]
        self.counters = info["counters"]
        self.spans = []
        with open(directory / "spans.tsv") as f:
            for line in f:
                sid, parent, op, name, start, end, nbytes, status = line.split("\t")
                self.spans.append(
                    (int(sid), int(parent), int(op), name, int(start),
                     int(end), int(nbytes), int(status)))

    def wall_s(self):
        return (self.window_end - self.window_start) / 1e9

    def ops(self, name):
        return [s for s in self.spans if s[3] == name]

    def window_ops(self):
        return [s for s in self.spans if s[3].startswith("op.")]

    def open_ops(self):
        """Window opens; workloads without any use their open phase."""
        return self.ops("op.open") or self.ops("phase.open")

    def c(self, name):
        return self.counters.get(name, 0)


def percentile(values, q):
    """Linear interpolation between order statistics; q in [0, 100]."""
    if not values:
        return 0.0
    xs = sorted(values)
    rank = (len(xs) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def ms(ns):
    return ns / 1e6


def latencies_ms(spans):
    """A failed or refused op counts as missing every latency limit."""
    return [ms(s[5] - s[4]) if 200 <= s[7] < 300 else float("inf")
            for s in spans]


def failures(run):
    failed = (run.c("editor.failed") + run.c("open_phase.failed")
              + run.c("verify.failures") + run.c("open_phase_net.giveups"))
    failed += sum(run.c(name) for name in REJECTION_COUNTERS)
    failed += run.c("canary.disk_hits") + run.c("canary.wire_hits")
    failed += run.c("integrity.errors")
    attempted = (run.c("editor.ops") + run.c("open_phase.ops")
                 + run.c("verify.checks"))
    return int(attempted), int(failed)


def ops_per_s(run):
    done = sum(1 for s in run.window_ops() if 200 <= s[7] < 300)
    return done / run.wall_s()


def end_to_end(run):
    attempted, failed = failures(run)
    saves = latencies_ms(run.ops("op.save"))
    opens = latencies_ms(run.open_ops())
    sampled = max(run.c("wire.sample_ops"), 1)
    metrics = {
        "save_p50_ms": percentile(saves, 50),
        "save_p95_ms": percentile(saves, 95),
        "open_p50_ms": percentile(opens, 50),
        "open_p95_ms": percentile(opens, 95),
        "ops_per_s": ops_per_s(run),
        "ok_ratio": 1.0 - failed / max(attempted, 1),
        "wire_up_bytes_per_op": run.c("wire.sample_up_bytes") / sampled,
        "wire_down_bytes_per_op": run.c("wire.sample_down_bytes") / sampled,
        "stored_bytes_per_char":
            run.c("store.bytes_at_rest") / max(run.c("doc.plaintext_chars"), 1),
        "peak_rss_mb": run.c("rss.peak_kb") / 1024.0,
        "setup_s": statistics.median(run.setup_s),
    }
    return metrics, attempted, failed


def span_tree(run, ops):
    """Handler spans under `ops`, and store spans under those handlers."""
    op_ids = {s[0] for s in ops}
    handlers = [s for s in run.spans
                if s[3].startswith("handler.") and s[2] in op_ids]
    handler_ids = {s[0] for s in handlers}
    stores = [s for s in run.spans
              if s[3].startswith("store.") and s[1] in handler_ids]
    return handlers, stores


def child_time(children, key):
    total = {}
    for s in children:
        total[s[key]] = total.get(s[key], 0) + (s[5] - s[4])
    return total


def proxy_side_ms(run, ops):
    """Op time not spent in the provider's handler: mediator, lock wait
    and both loopback hops."""
    handlers, _ = span_tree(run, ops)
    inside = child_time(handlers, 2)
    return [ms(s[5] - s[4] - inside.get(s[0], 0)) for s in ops]


def per_layer(run, untraced):
    ops = run.window_ops()
    saves = run.ops("op.save")
    n_ops = max(run.c("editor.ops"), 1)
    n_saves = max(len(saves), 1)
    handlers, stores = span_tree(run, ops)
    store_in = child_time(stores, 1)
    handler_ns = sum(s[5] - s[4] for s in handlers)
    store_ns = sum(s[5] - s[4] for s in stores)
    op_ns = max(sum(s[5] - s[4] for s in ops), 1)
    puts = [s for s in stores if s[3].startswith("store.put.")]
    open_ops = run.open_ops()
    open_handlers, _ = span_tree(run, open_ops)
    full_saves = run.c("mediator.full_saves_encrypted")

    def count(name):
        return sum(1 for s in stores if s[3] == name)

    return {
        "proxy.side_ms.save.p50": percentile(proxy_side_ms(run, saves), 50),
        "proxy.side_ms.open.p50": percentile(proxy_side_ms(run, open_ops), 50),
        "provider.inflight_mean": handler_ns / 1e9 / run.wall_s(),
        "router.save_ms.p50": percentile(
            [ms(s[5] - s[4]) for s in handlers if s[3] == "handler.save"], 50),
        "router.open_ms.p50": percentile(
            [ms(s[5] - s[4]) for s in open_handlers if s[3] == "handler.open"],
            50),
        "router.self_ms.p50": percentile(
            [ms(s[5] - s[4] - store_in.get(s[0], 0)) for s in handlers], 50),
        "store.record_puts_per_save": count("store.put.record") / n_saves,
        "store.audit_puts_per_save": count("store.put.audit") / n_saves,
        "store.tenant_puts_per_save": count("store.put.tenant") / n_saves,
        "store.put_ms.p50": percentile([ms(s[5] - s[4]) for s in puts], 50),
        "store.put_bytes_per_save": sum(s[6] for s in puts) / n_saves,
        "store.share_of_router": store_ns / max(handler_ns, 1),
        "mediator.upstream_calls_per_op": run.c("wire.requests") / n_ops,
        "mediator.journal_appends_per_save":
            run.c("mediator.journal_appends") / n_saves,
        "mediator.audit_links_per_save":
            run.c("mediator.audit_links_committed") / n_saves,
        "mediator.witnesses_per_save":
            run.c("mediator.witnesses_published") / n_saves,
        "mediator.chain_retries": run.c("mediator.audit_chain_retries"),
        "mediator.bdelta_hit_ratio":
            run.c("mediator.bdelta_saves") / full_saves if full_saves else 0.0,
        "mediator.bdelta_fallbacks": run.c("mediator.bdelta_fallbacks"),
        "mediator.bdelta_bytes_per_save":
            run.c("mediator.bdelta_bytes") / n_saves,
        "mediator.opens_decrypted_per_op":
            run.c("mediator.opens_decrypted") / n_ops,
        "net.connects_per_op":
            (run.c("editor_net.attempts") + run.c("provider_http.served"))
            / n_ops,
        "net.rejected_busy": run.c("provider_http.rejected_busy"),
        "net.dropped": run.c("provider_http.dropped"),
        "net.retries": run.c("editor_net.retries") + run.c("editor_net.giveups"),
        "router.rejections":
            run.c("router.quota_rejections") + run.c("router.handoff_rejections")
            + run.c("router.down_rejections") + run.c("tenant.doc_rejections")
            + run.c("tenant.byte_rejections"),
        "self_share.proxy": (op_ns - handler_ns) / op_ns,
        "self_share.router": (handler_ns - store_ns) / op_ns,
        "self_share.store": store_ns / op_ns,
        "trace.overhead_frac":
            1.0 - ops_per_s(run) / ops_per_s(untraced) if untraced else 0.0,
    }


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    run = Run(argv[1])
    untraced = Run(argv[2]) if len(argv) == 3 else None
    attempted, failed = failures(run)
    print(f"{run.workload}: {len(run.window_ops())} ops in {run.wall_s():.2f} s, "
          f"{failed} failed of {attempted} attempted")
    for name, value in per_layer(run, untraced).items():
        print(f"  {name:36s} {value:12.4f} {PER_LAYER_UNITS[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
