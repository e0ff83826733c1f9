//! Per-layer metric names and their extraction from one repetition's
//! counters and virtual-time histograms.
//!
//! Every workload prints the same list, so a layer a workload does not use
//! reads 0 there (no lock calls on SOR, no updates on sor-conv-16).

use std::collections::BTreeMap;

use munin_apps::RunMeasurement;
use munin_core::LatencyHist;

use crate::traced::CALLS;

/// Message classes reported one by one under `sim.msgs.<class>` and
/// `sim.bytes.<class>`: every class the four workloads send, plus the
/// copyset and relay-forward classes an optimisation of those layers would
/// bring in. Anything else lands in `other`.
pub const CLASSES: [&str; 19] = [
    "barrier_arrive",
    "barrier_release",
    "copyset_query",
    "copyset_reply",
    "invalidate",
    "invalidate_ack",
    "lock_acquire",
    "lock_grant",
    "object_data",
    "object_fetch",
    "reduce_reply",
    "reduce_request",
    "relay_fanout",
    "relay_fanout_ack",
    "relay_forward",
    "shutdown",
    "update",
    "update_ack",
    "worker_done",
];

/// Annotations whose fault service time is reported
/// (`fault.service_p50_ms.<annotation>`): those the workloads fault on.
pub const ANNOTATIONS: [&str; 5] = [
    "read_only",
    "result",
    "producer_consumer",
    "conventional",
    "migratory",
];

/// Unit of a virtual-time metric: milliseconds of the simulated 1991
/// machine's clock, not host time.
pub const VMS: &str = "vms";

/// Every per-layer metric with its unit, in output order.
pub fn names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| out.push((name, unit));
    for (name, unit) in [
        ("fault.read_faults", "count"),
        ("fault.write_faults", "count"),
        ("fault.fetches", "count"),
        ("fault.fetch_bytes", "B"),
        ("fault.fetch_wait_p50_ms", VMS),
        ("fault.fetch_wait_p99_ms", VMS),
    ] {
        add(name.into(), unit);
    }
    for a in ANNOTATIONS {
        add(format!("fault.service_p50_ms.{a}"), VMS);
    }
    for (name, unit) in [
        ("duq.twins", "count"),
        ("duq.flushes", "count"),
        ("duq.objects_flushed", "count"),
        ("diff.updates_sent", "count"),
        ("diff.update_bytes", "B"),
        ("diff.updates_applied", "count"),
        ("diff.encode_ns_per_page", "ns"),
        ("diff.apply_ns_per_page", "ns"),
        ("diff.bytes_per_page", "B"),
        ("copyset.rounds", "count"),
        ("copyset.query_msgs", "count"),
        ("copyset.healed", "count"),
        ("outbox.piggybacked", "count"),
        ("outbox.coalesced", "count"),
        ("outbox.relay_bypassed_bytes", "B"),
        ("outbox.owner_refans", "count"),
        ("sync.barrier_waits", "count"),
        ("sync.owner_ingress", "count"),
        ("sync.barrier_wait_p50_ms", VMS),
        ("sync.barrier_wait_p99_ms", VMS),
        ("sync.lock_acquires", "count"),
        ("sync.lock_local_frac", "ratio"),
        ("sync.lock_msgs", "count"),
        ("sync.lock_wait_p50_ms", VMS),
        ("sync.reductions", "count"),
        ("sim.virt_s_min", "vsec"),
        ("sim.virt_s_p50", "vsec"),
        ("sim.virt_s_max", "vsec"),
        ("sim.timers_fired", "count"),
        ("sim.host_wall_ms", "ms"),
    ] {
        add(name.into(), unit);
    }
    for c in CLASSES.into_iter().chain(["other"]) {
        add(format!("sim.msgs.{c}"), "count");
        add(format!("sim.bytes.{c}"), "B");
    }
    add("msgpass.virt_s".into(), "vsec");
    add("msgpass.munin_over_dm".into(), "ratio");
    for c in CALLS {
        add(format!("api.{c}.host_ms"), "ms");
        add(format!("api.{c}.calls"), "count");
    }
    add("obs.trace_overhead_pct".into(), "%");
    add("obs.events_dropped".into(), "count");
    out
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// p50 and p99 of a named histogram in virtual ms (0 when absent).
fn wait_ms(hists: &BTreeMap<&'static str, LatencyHist>, kind: &str) -> (f64, f64) {
    hists
        .get(kind)
        .map_or((0.0, 0.0), |h| (ms(h.p50_ns()), ms(h.p99_ns())))
}

/// The counter- and histogram-based per-layer values of one repetition.
/// Host-time metrics (`diff.*_ns_per_page`, `api.*`, `sim.host_wall_ms`,
/// `obs.trace_overhead_pct`) and run-level ones (`sim.virt_s_*`,
/// `msgpass.*`) are filled in by the caller in `main.rs`.
pub fn counters(m: &RunMeasurement, events_dropped: u64) -> BTreeMap<String, f64> {
    let s = &m.stats;
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    put("fault.read_faults", s.read_faults as f64);
    put("fault.write_faults", s.write_faults as f64);
    put("fault.fetches", s.objects_fetched as f64);
    put("fault.fetch_bytes", s.fetch_bytes as f64);
    let (p50, p99) = wait_ms(&m.obs.waits, "fetch");
    put("fault.fetch_wait_p50_ms", p50);
    put("fault.fetch_wait_p99_ms", p99);
    for a in ANNOTATIONS {
        put(
            &format!("fault.service_p50_ms.{a}"),
            wait_ms(&m.obs.fault_service, a).0,
        );
    }
    put("duq.twins", s.twins_created as f64);
    put("duq.flushes", s.duq_flushes as f64);
    put("duq.objects_flushed", s.duq_objects_flushed as f64);
    put("diff.updates_sent", s.updates_sent as f64);
    put("diff.update_bytes", s.update_bytes_sent as f64);
    put("diff.updates_applied", s.updates_applied as f64);
    put("copyset.rounds", s.copyset_queries as f64);
    put("copyset.query_msgs", s.copyset_query_msgs as f64);
    put("copyset.healed", s.updates_healed as f64);
    put("outbox.piggybacked", s.msgs_piggybacked as f64);
    put("outbox.coalesced", s.flushes_coalesced as f64);
    put("outbox.relay_bypassed_bytes", s.relay_bypassed_bytes as f64);
    put("outbox.owner_refans", s.owner_refans as f64);
    put("sync.barrier_waits", s.barrier_waits as f64);
    put("sync.owner_ingress", s.barrier_owner_ingress as f64);
    let (p50, p99) = wait_ms(&m.obs.waits, "barrier");
    put("sync.barrier_wait_p50_ms", p50);
    put("sync.barrier_wait_p99_ms", p99);
    put("sync.lock_acquires", s.lock_acquires as f64);
    let local_frac = if s.lock_acquires == 0 {
        0.0
    } else {
        s.lock_local_acquires as f64 / s.lock_acquires as f64
    };
    put("sync.lock_local_frac", local_frac);
    put("sync.lock_msgs", s.lock_messages as f64);
    put(
        "sync.lock_wait_p50_ms",
        wait_ms(&m.obs.waits, "lock_acquire").0,
    );
    put("sync.reductions", s.reductions as f64);
    put("sim.timers_fired", m.engine.timers_fired as f64);
    let (mut rest_msgs, mut rest_bytes) = (m.engine.messages_sent, m.engine.bytes_sent);
    for c in CLASSES {
        let vol = m.engine.class(c);
        rest_msgs -= vol.msgs;
        rest_bytes -= vol.bytes;
        put(&format!("sim.msgs.{c}"), vol.msgs as f64);
        put(&format!("sim.bytes.{c}"), vol.bytes as f64);
    }
    put("sim.msgs.other", rest_msgs as f64);
    put("sim.bytes.other", rest_bytes as f64);
    put("obs.events_dropped", events_dropped as f64);
    v
}
