//! Post-run verification: the service-level contract, checked exactly.
//!
//! The campaign's value is not that the service *usually* works — it is
//! that after any run, crash-scarred or not, these gates hold:
//!
//! 1. **Completeness** — every scheduled request reached a terminal
//!    outcome; nothing hung.
//! 2. **At-most-once** — per `(client, request)`, at most one *fresh*
//!    apply across every never-silenced server: retries and failovers
//!    never double-apply anywhere a client could observe. A replica
//!    that is crash-silenced *mid-commit* may log a fresh apply whose
//!    eager fan-out died with it (its fence resolves against convicted
//!    peers and its ack is swallowed) — that apply was never
//!    acknowledged and the replica is never re-promoted, so it is
//!    unobservable; the gate therefore scopes to never-silenced
//!    servers, which is exactly the client-visible contract.
//! 3. **Apply consistency** — every apply decision for a request names
//!    the same key (no torn or corrupted request was ever applied).
//! 4. **Acked-implies-applied** — every committed put has an apply.
//! 5. **Durability** — for every committed put, every replica that was
//!    never crash-silenced holds the write (merged stamp ≥ the request
//!    id) in its local copies. This is the ack-after-fence invariant
//!    made falsifiable: the ack only left after the eager update was
//!    fenced to every live replica. Ever-crashed replicas are exempt —
//!    they missed updates while silenced and re-syncing them is
//!    anti-entropy work this service deliberately does not do (they are
//!    also never re-promoted; see the client's sticky suspicion).
//! 6. **Attribution** — every nonzero stamp in the final merged store
//!    is a request some server logged as a fresh apply of that key.
//! 7. **Get sanity** — every committed get returned a stamp that is
//!    either 0 (unwritten) or an applied write of that key.
//!
//! [`fingerprint`] folds the complete observable history (every request
//! record, every apply, the final store) into one hash; two runs of the
//! same seed must produce the same value bit-for-bit, which is how the
//! campaign proves the robustness layer kept the simulation
//! deterministic.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hasher;

use telegraphos::Cluster;
use tg_wire::{Fnv1a, NodeId};

use crate::config::KvConfig;
use crate::layout::OpKindKv;
use crate::service::{KvHandles, Outcome};

/// The audit's verdict and the headline service metrics.
#[derive(Debug)]
pub struct AuditReport {
    /// Every gate violation, human-readable. Empty = the contract held.
    pub violations: Vec<String>,
    /// Committed puts.
    pub committed_puts: u64,
    /// Committed gets.
    pub committed_gets: u64,
    /// Requests shed terminally by admission control.
    pub rejected_busy: u64,
    /// Requests that exhausted every route.
    pub failed_unreachable: u64,
    /// Fresh applies across all servers.
    pub fresh_applies: u64,
    /// Duplicate transmissions recognised and suppressed.
    pub dedup_hits: u64,
    /// Client-observed timeouts.
    pub timeouts: u64,
    /// Ownership failovers driven by clients.
    pub failovers: u64,
    /// Committed-request latencies (resolved − scheduled arrival), in
    /// nanoseconds, unsorted (schedule order).
    pub latencies_ns: Vec<u64>,
    /// The determinism fingerprint of the whole observable history.
    pub fingerprint: u64,
}

/// The merged stamp replica `ri` holds for `key`, across its local
/// copies of every store page (its own home page plus the eager copies
/// it consumes).
fn merged_stamp_at(cluster: &Cluster, h: &KvHandles, ri: usize, key: u32) -> u64 {
    let my_node = NodeId::new(1 + ri as u16);
    let mut best = cluster.read_shared(&h.pages.stores[ri], u64::from(key));
    for (src, copies) in h.pages.store_copies.iter().enumerate() {
        if src == ri {
            continue;
        }
        for &(node, frame) in copies {
            if node == my_node {
                best = best.max(cluster.read_local_frame(node.raw(), frame, u64::from(key)));
            }
        }
    }
    best
}

/// Runs every gate against a finished deployment. `ever_crashed` names
/// the replica nodes the fault plan silenced at any point (exempt from
/// the durability gate, as documented in the module header).
pub fn audit(cluster: &Cluster, h: &KvHandles, ever_crashed: &[NodeId]) -> AuditReport {
    let cfg: &KvConfig = &h.cfg;
    let mut violations = Vec::new();
    let crashed: BTreeSet<u16> = ever_crashed.iter().map(|n| n.raw()).collect();

    // Gate 1: completeness.
    for (ci, log) in h.client_logs.iter().enumerate() {
        let n = log.borrow().requests.len();
        if n != cfg.requests_per_client as usize {
            violations.push(format!(
                "client {ci}: {n} of {} requests resolved",
                cfg.requests_per_client
            ));
        }
    }

    // Collect applies per (client, req).
    let mut fresh: BTreeMap<(u16, u32), Vec<(u16, u32)>> = BTreeMap::new();
    let mut all_applies: BTreeMap<(u16, u32), Vec<u32>> = BTreeMap::new();
    let mut applied_keys: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    let mut fresh_applies = 0u64;
    let mut dedup_hits = 0u64;
    for log in &h.server_logs {
        let log = log.borrow();
        dedup_hits += log.dedup_hits;
        for a in &log.applies {
            all_applies
                .entry((a.client, a.req))
                .or_default()
                .push(a.key);
            if a.fresh {
                fresh_applies += 1;
                fresh
                    .entry((a.client, a.req))
                    .or_default()
                    .push((a.server, a.key));
                applied_keys.entry(a.key).or_default().insert(a.req);
            }
        }
    }

    // Gate 2: at-most-once among never-silenced servers (a silenced
    // replica's mid-commit apply is unacknowledged and unobservable —
    // see the module docs).
    for (&(ci, req), sites) in &fresh {
        let observable: Vec<_> = sites
            .iter()
            .filter(|(server, _)| !crashed.contains(&(1 + server)))
            .collect();
        if observable.len() > 1 {
            violations.push(format!(
                "request c{ci}/r{req} applied fresh {} times: {observable:?}",
                observable.len()
            ));
        }
    }

    // Gate 3: apply consistency.
    for (&(ci, req), keys) in &all_applies {
        if keys.windows(2).any(|w| w[0] != w[1]) {
            violations.push(format!(
                "request c{ci}/r{req} applies disagree on key: {keys:?}"
            ));
        }
    }

    let live_replicas: Vec<usize> = (0..cfg.replicas as usize)
        .filter(|ri| !crashed.contains(&(1 + *ri as u16)))
        .collect();

    let mut committed_puts = 0u64;
    let mut committed_gets = 0u64;
    let mut rejected_busy = 0u64;
    let mut failed_unreachable = 0u64;
    let mut timeouts = 0u64;
    let mut failovers = 0u64;
    let mut latencies_ns = Vec::new();
    for log in &h.client_logs {
        let log = log.borrow();
        timeouts += log.timeouts;
        for r in &log.requests {
            failovers += u64::from(r.failovers);
            match r.outcome {
                Outcome::Committed => {
                    latencies_ns.push((r.resolved.saturating_sub(r.arrival)).as_ns());
                    match r.op {
                        OpKindKv::Put => {
                            committed_puts += 1;
                            // Gate 4: acked-implies-applied.
                            if !all_applies.contains_key(&(r.client, r.req)) {
                                violations.push(format!(
                                    "committed put c{}/r{} has no apply record",
                                    r.client, r.req
                                ));
                            }
                            // Gate 5: durability on never-crashed replicas.
                            for &ri in &live_replicas {
                                let stamp = merged_stamp_at(cluster, h, ri, r.key);
                                if stamp < u64::from(r.req) {
                                    violations.push(format!(
                                        "lost acked write: c{}/r{} key {} absent on \
                                         never-crashed replica {} (stamp {stamp})",
                                        r.client, r.req, r.key, ri
                                    ));
                                }
                            }
                        }
                        OpKindKv::Get => {
                            committed_gets += 1;
                            // Gate 7: get sanity.
                            if r.get_stamp != 0
                                && !applied_keys
                                    .get(&r.key)
                                    .is_some_and(|reqs| reqs.contains(&r.get_stamp))
                            {
                                violations.push(format!(
                                    "get c{}/r{} key {} returned unapplied stamp {}",
                                    r.client, r.req, r.key, r.get_stamp
                                ));
                            }
                        }
                    }
                }
                Outcome::RejectedBusy => rejected_busy += 1,
                Outcome::FailedUnreachable => failed_unreachable += 1,
            }
        }
    }

    // Gate 6: attribution of the final merged store.
    for key in 0..cfg.total_keys() {
        let mut final_stamp = 0u64;
        for &ri in &live_replicas {
            final_stamp = final_stamp.max(merged_stamp_at(cluster, h, ri, key));
        }
        if final_stamp != 0
            && !applied_keys
                .get(&key)
                .is_some_and(|reqs| reqs.contains(&(final_stamp as u32)))
        {
            violations.push(format!(
                "final store stamp {final_stamp} on key {key} matches no fresh apply"
            ));
        }
    }

    AuditReport {
        violations,
        committed_puts,
        committed_gets,
        rejected_busy,
        failed_unreachable,
        fresh_applies,
        dedup_hits,
        timeouts,
        failovers,
        latencies_ns,
        fingerprint: fingerprint(cluster, h),
    }
}

/// Folds the complete observable history — every request record, every
/// apply decision, every server counter, and the final store words at
/// every replica — into one 64-bit hash. Same seed ⇒ same fingerprint,
/// bit-for-bit; the campaign runs each configuration twice and compares.
pub fn fingerprint(cluster: &Cluster, h: &KvHandles) -> u64 {
    let mut hash = Fnv1a::default();
    for (ci, log) in h.client_logs.iter().enumerate() {
        let log = log.borrow();
        hash.write(format!("c{ci}").as_bytes());
        for r in &log.requests {
            hash.write(
                format!(
                    "r{}:{:?}:{}:{}:{}:{}:{}:{:?}:{}",
                    r.req,
                    r.op,
                    r.key,
                    r.arrival.as_ps(),
                    r.resolved.as_ps(),
                    r.attempts,
                    r.failovers,
                    r.outcome,
                    r.get_stamp,
                )
                .as_bytes(),
            );
        }
        hash.write(
            format!(
                "t{}b{}f{}s{}d{}x{}",
                log.timeouts,
                log.busy_acks,
                log.fail_fast_reroutes,
                log.stale_acks,
                log.dir_refreshes,
                log.dir_failures
            )
            .as_bytes(),
        );
    }
    for (ri, log) in h.server_logs.iter().enumerate() {
        let log = log.borrow();
        hash.write(format!("s{ri}").as_bytes());
        for a in &log.applies {
            hash.write(
                format!(
                    "a{}:{}:{}:{}:{}:{}",
                    a.server,
                    a.client,
                    a.req,
                    a.key,
                    a.fresh,
                    a.at.as_ps()
                )
                .as_bytes(),
            );
        }
        hash.write(
            format!(
                "b{}d{}n{}p{}g{}w{}",
                log.busy_acks,
                log.dedup_hits,
                log.not_owner_acks,
                log.parked,
                log.gets_served,
                log.sweeps
            )
            .as_bytes(),
        );
    }
    for ri in 0..h.cfg.replicas as usize {
        for key in 0..h.cfg.total_keys() {
            hash.write(&merged_stamp_at(cluster, h, ri, key).to_le_bytes());
        }
    }
    hash.finish()
}
