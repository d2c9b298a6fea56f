//! The versioned system store behind the `store_put` and
//! `store_analyze` wire queries.
//!
//! A [`SystemStore`] holds *named* systems in parsed form. Every
//! `store_put` on a name bumps that entry's version and diffs the new
//! body against the previous one at **resource, chain and task
//! granularity** ([`StoreDiff`]); every `store_analyze` re-analyzes the
//! current version **incrementally**: a distributed entry's holistic
//! latency rows live in the session's shared
//! [`twca_chains::AnalysisCache`], keyed by the fingerprint-and-guard
//! [`twca_chains::SystemKey`] of each resource's effective system, so
//! an edit invalidates exactly the rows whose inputs changed —
//! unchanged resources (under this name or any other) are answered
//! from the cache, and only the dirty-resource worklist downstream of
//! the edit is recomputed. The store itself holds no analysis state;
//! the cache's capacity and eviction bound the rows.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use twca_dist::{render_distributed, DistributedSystem};
use twca_model::{render_system, System};

use crate::error::{ApiError, ApiErrorKind};
use crate::persist::{
    self, encode_put, recover, PersistPolicy, PersistSeq, PersistStats, Persistence, PutRecord,
    RecoveryReport, StoreIo, JOURNAL_FILE, KIND_DIST, KIND_UNI, SNAPSHOT_FILE,
};
use std::sync::atomic::Ordering;

/// One stored body: a uniprocessor chain system or a distributed
/// linked-resource system, kept parsed so repeated analyses skip the
/// DSL front end.
#[derive(Debug, Clone)]
pub enum StoredBody {
    /// One SPP resource.
    Uni(System),
    /// A distributed system of linked resources.
    Dist(DistributedSystem),
}

/// What changed between two consecutive versions of a stored system.
///
/// Counts are over the *new* body plus removals: an added, removed or
/// edited chain counts once in `chains_changed` and once per affected
/// task in `tasks_changed`; a resource counts in `resources_changed`
/// when any of its chains changed or its incident links moved.
/// Uniprocessor bodies are treated as a single resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreDiff {
    /// Resources with any changed chain or a moved incident link.
    pub resources_changed: u64,
    /// Chains added, removed, or edited (any field, including tasks).
    pub chains_changed: u64,
    /// Tasks added, removed, or edited (name, priority, or WCET).
    pub tasks_changed: u64,
}

impl StoreDiff {
    /// Whether nothing changed between the versions.
    pub fn is_empty(&self) -> bool {
        *self == StoreDiff::default()
    }
}

/// The receipt of one [`SystemStore::put`]: the version now current
/// under the name and the diff against the previous version (all-zero
/// for a first put).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutReceipt {
    /// The entry name.
    pub name: String,
    /// The version just stored (1 for a first put).
    pub version: u64,
    /// Diff against the previous version; all-zero when `version == 1`.
    pub diff: StoreDiff,
}

/// One named entry: the current version and its parsed body.
#[derive(Debug)]
pub(crate) struct StoreEntry {
    pub(crate) version: u64,
    pub(crate) body: StoredBody,
    /// The body rendered to DSL text — kept only on durable stores,
    /// where snapshots re-emit it without re-rendering.
    pub(crate) text: Option<String>,
}

/// Named, versioned systems.
///
/// The outer map lock is held only for lookups and insertions; each
/// entry has its own lock, held for the duration of a put or an
/// analysis of that entry, so concurrent requests on *different* names
/// never serialize against each other.
///
/// # Examples
///
/// ```
/// use twca_api::{StoredBody, SystemStore};
/// use twca_model::parse_system;
///
/// let store = SystemStore::new();
/// let sys = "chain c periodic=100 deadline=100 { task t prio=1 wcet=10 }";
/// let first = store.put("plant", StoredBody::Uni(parse_system(sys).unwrap())).unwrap();
/// assert_eq!(first.version, 1);
/// assert!(first.diff.is_empty());
///
/// let edited = "chain c periodic=100 deadline=100 { task t prio=1 wcet=12 }";
/// let second = store.put("plant", StoredBody::Uni(parse_system(edited).unwrap())).unwrap();
/// assert_eq!(second.version, 2);
/// assert_eq!(second.diff.tasks_changed, 1);
/// assert_eq!(second.diff.chains_changed, 1);
/// ```
///
/// # Durability
///
/// [`SystemStore::durable`] opens a store backed by a journal and
/// snapshots behind a [`StoreIo`] (see [`crate::persist`]): every put
/// is appended to the journal *before* it is visible in memory, and a
/// restart replays snapshot + journal so version history survives the
/// process. Durable puts serialize on the journal's commit lock —
/// the per-entry concurrency of in-memory stores applies to analyses,
/// not to durable puts.
#[derive(Debug, Default)]
pub struct SystemStore {
    entries: Mutex<HashMap<String, Arc<Mutex<StoreEntry>>>>,
    persist: Option<Persistence>,
    dedup: Mutex<DedupLedger>,
}

/// At-most-once receipts for puts that carried a client dedup id:
/// a bounded id → receipt map in insertion order, so a retried put
/// whose acknowledgement was lost in transit returns the original
/// receipt instead of being applied again.
///
/// The ledger is in-memory: its at-most-once guarantee covers the
/// lifetime of the serving process (a client retrying across a server
/// crash re-applies, which is the pre-dedup behavior).
#[derive(Debug, Default)]
struct DedupLedger {
    receipts: HashMap<String, PutReceipt>,
    order: std::collections::VecDeque<String>,
}

/// Dedup receipts remembered before the oldest ids are forgotten.
const DEDUP_CAPACITY: usize = 4096;

/// The longest accepted store name, in bytes.
const MAX_STORE_NAME: usize = 128;

/// Rejects names that are empty, over-long, or could escape a store
/// directory once used as snapshot/journal path components.
pub(crate) fn validate_store_name(name: &str) -> Result<(), ApiError> {
    let reason = if name.is_empty() {
        Some("empty".to_owned())
    } else if name.len() > MAX_STORE_NAME {
        Some(format!("longer than {MAX_STORE_NAME} bytes"))
    } else if name.contains('/') || name.contains('\\') {
        Some("contains a path separator".to_owned())
    } else if name.contains('\0') {
        Some("contains a NUL byte".to_owned())
    } else if name.contains("..") {
        Some("contains `..`".to_owned())
    } else {
        None
    };
    match reason {
        None => Ok(()),
        Some(reason) => Err(ApiError::new(
            ApiErrorKind::Request,
            format!("invalid store name: {reason}"),
        )),
    }
}

/// Renders a body to the DSL text the journal and snapshots carry.
/// Bodies that round-trip through the parser always render; hand-built
/// bodies with activation models the DSL cannot express are refused —
/// persisting them would corrupt recovery.
fn render_body(body: &StoredBody) -> Result<(u8, String), ApiError> {
    let (kind, text) = match body {
        StoredBody::Uni(system) => (KIND_UNI, render_system(system)),
        StoredBody::Dist(system) => (KIND_DIST, render_distributed(system)),
    };
    if text.contains("# unrepresentable") {
        return Err(ApiError::new(
            ApiErrorKind::Persist,
            "body uses an activation model the persistent DSL format cannot express",
        ));
    }
    Ok((kind, text))
}

impl SystemStore {
    /// An empty in-memory store; history dies with the process.
    pub fn new() -> SystemStore {
        SystemStore::default()
    }

    /// Opens a durable store over `io`: recovers the newest valid
    /// snapshot plus journal (repairing a torn tail), and journals
    /// every subsequent put per `policy`.
    ///
    /// # Errors
    ///
    /// [`ApiErrorKind::Persist`] when recovery refuses corruption or
    /// the backing I/O fails — never a silently empty store.
    pub fn durable(
        io: Arc<dyn StoreIo>,
        policy: PersistPolicy,
    ) -> Result<(SystemStore, RecoveryReport), ApiError> {
        let recovered = recover(io.as_ref())?;
        if let Some(valid_prefix) = &recovered.repaired_journal {
            io.replace(JOURNAL_FILE, valid_prefix)?;
        }
        let entries = recovered
            .entries
            .into_iter()
            .map(|(name, (version, body, text))| {
                (
                    name,
                    Arc::new(Mutex::new(StoreEntry {
                        version,
                        body,
                        text: Some(text),
                    })),
                )
            })
            .collect();
        let store = SystemStore {
            entries: Mutex::new(entries),
            persist: Some(Persistence {
                io,
                policy,
                seq: Mutex::new(PersistSeq {
                    next_seq: recovered.last_seq + 1,
                    since_sync: 0,
                    since_snapshot: 0,
                }),
                counters: Default::default(),
                recovery: recovered.report,
            }),
            dedup: Mutex::new(DedupLedger::default()),
        };
        Ok((store, recovered.report))
    }

    /// Stores `body` under `name`, creating version 1 or bumping the
    /// existing entry's version, and returns the receipt with the diff
    /// against the previous version. On a durable store the put is
    /// journaled before it becomes visible.
    ///
    /// # Errors
    ///
    /// [`ApiErrorKind::Request`] for an invalid name;
    /// [`ApiErrorKind::Persist`] when journaling fails (the put is not
    /// applied) or a post-append fsync/snapshot fails (the put *is*
    /// applied and journaled; retrying is safe).
    pub fn put(&self, name: &str, body: StoredBody) -> Result<PutReceipt, ApiError> {
        validate_store_name(name)?;
        match &self.persist {
            None => Ok(self.put_in_memory(name, body)),
            Some(_) => self.put_durable(name, body),
        }
    }

    /// [`SystemStore::put`] with an optional client dedup id, honored
    /// at most once: a retry of an id this store already acknowledged
    /// returns the original receipt (flagged `true`) without applying
    /// or journaling anything again.
    ///
    /// # Errors
    ///
    /// As [`SystemStore::put`]; a failed put records nothing under the
    /// id, so retrying it is safe and will apply.
    pub fn put_dedup(
        &self,
        name: &str,
        body: StoredBody,
        dedup: Option<&str>,
    ) -> Result<(PutReceipt, bool), ApiError> {
        let Some(id) = dedup else {
            return Ok((self.put(name, body)?, false));
        };
        // The ledger lock is held across the apply so two concurrent
        // retries of one id cannot both miss and double-apply; puts
        // without an id never touch it.
        let mut ledger = self.dedup.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(receipt) = ledger.receipts.get(id) {
            return Ok((receipt.clone(), true));
        }
        let receipt = self.put(name, body)?;
        if ledger.receipts.len() >= DEDUP_CAPACITY {
            if let Some(oldest) = ledger.order.pop_front() {
                ledger.receipts.remove(&oldest);
            }
        }
        ledger.order.push_back(id.to_owned());
        ledger.receipts.insert(id.to_owned(), receipt.clone());
        Ok((receipt, false))
    }

    fn put_in_memory(&self, name: &str, body: StoredBody) -> PutReceipt {
        let slot = {
            let mut entries = self.entries.lock().expect("store poisoned");
            match entries.get(name) {
                Some(slot) => Arc::clone(slot),
                None => {
                    entries.insert(
                        name.to_owned(),
                        Arc::new(Mutex::new(StoreEntry {
                            version: 1,
                            body,
                            text: None,
                        })),
                    );
                    return PutReceipt {
                        name: name.to_owned(),
                        version: 1,
                        diff: StoreDiff::default(),
                    };
                }
            }
        };
        let mut entry = slot.lock().expect("store entry poisoned");
        let diff = diff_bodies(&entry.body, &body);
        entry.version += 1;
        entry.body = body;
        PutReceipt {
            name: name.to_owned(),
            version: entry.version,
            diff,
        }
    }

    fn put_durable(&self, name: &str, body: StoredBody) -> Result<PutReceipt, ApiError> {
        let persist = self.persist.as_ref().expect("checked durable");
        let (kind, text) = render_body(&body)?;
        // The commit lock: journal order, sequence numbers and entry
        // versions must agree, so durable puts fully serialize here.
        let mut seq = persist.seq.lock().expect("persist poisoned");

        // Compute the receipt against the current entry (lock released
        // before I/O; no other put can interleave while we hold `seq`).
        let slot = self.handle(name);
        let (version, diff) = match &slot {
            None => (1, StoreDiff::default()),
            Some(slot) => {
                let entry = slot.lock().expect("store entry poisoned");
                (entry.version + 1, diff_bodies(&entry.body, &body))
            }
        };

        // Journal first: a put is only acknowledged once its record is
        // on the journal, so recovery can never know *more* than the
        // client was told.
        let record = encode_put(&PutRecord {
            seq: seq.next_seq,
            version,
            kind,
            name: name.to_owned(),
            text: text.clone(),
        });
        persist.io.append(JOURNAL_FILE, &record)?;
        seq.next_seq += 1;
        seq.since_sync += 1;
        seq.since_snapshot += 1;
        persist
            .counters
            .journal_appends
            .fetch_add(1, Ordering::Relaxed);
        persist
            .counters
            .journal_bytes
            .fetch_add(record.len() as u64, Ordering::Relaxed);

        // The record is down: make the put visible before anything
        // else can fail, so memory and journal never diverge.
        match slot {
            Some(slot) => {
                let mut entry = slot.lock().expect("store entry poisoned");
                entry.version = version;
                entry.body = body;
                entry.text = Some(text);
            }
            None => {
                self.entries.lock().expect("store poisoned").insert(
                    name.to_owned(),
                    Arc::new(Mutex::new(StoreEntry {
                        version,
                        body,
                        text: Some(text),
                    })),
                );
            }
        }
        let receipt = PutReceipt {
            name: name.to_owned(),
            version,
            diff,
        };

        // Policy work after the commit point. A failure here surfaces
        // as an error, but the put above is journaled and applied —
        // retrying simply appends the same body as the next version.
        if persist.policy.sync_every > 0 && seq.since_sync >= persist.policy.sync_every {
            persist.io.sync(JOURNAL_FILE)?;
            seq.since_sync = 0;
            persist
                .counters
                .journal_syncs
                .fetch_add(1, Ordering::Relaxed);
        }
        if persist.policy.snapshot_every > 0 && seq.since_snapshot >= persist.policy.snapshot_every
        {
            self.write_snapshot(persist, &mut seq)?;
        }
        Ok(receipt)
    }

    /// Writes a snapshot covering everything journaled so far, then
    /// resets the journal. Caller holds the commit lock.
    fn write_snapshot(
        &self,
        persist: &Persistence,
        seq: &mut MutexGuard<'_, PersistSeq>,
    ) -> Result<(), ApiError> {
        let last_seq = seq.next_seq - 1;
        let slots: Vec<(String, Arc<Mutex<StoreEntry>>)> = {
            let entries = self.entries.lock().expect("store poisoned");
            entries
                .iter()
                .map(|(name, slot)| (name.clone(), Arc::clone(slot)))
                .collect()
        };
        let mut dump: Vec<(String, u64, u8, String)> = Vec::with_capacity(slots.len());
        for (name, slot) in slots {
            let entry = slot.lock().expect("store entry poisoned");
            let (kind, text) = match &entry.text {
                Some(text) => {
                    let kind = match &entry.body {
                        StoredBody::Uni(_) => KIND_UNI,
                        StoredBody::Dist(_) => KIND_DIST,
                    };
                    (kind, text.clone())
                }
                None => render_body(&entry.body)?,
            };
            dump.push((name, entry.version, kind, text));
        }
        dump.sort_by(|a, b| a.0.cmp(&b.0));
        let bytes = persist::encode_snapshot(last_seq, &dump);
        persist.io.replace(SNAPSHOT_FILE, &bytes)?;
        // Crash window here: the snapshot already covers every journal
        // record, so replay skips them all — reset is cosmetic.
        persist.io.replace(JOURNAL_FILE, &[])?;
        seq.since_snapshot = 0;
        seq.since_sync = 0;
        persist
            .counters
            .snapshots_written
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Forces a snapshot (and journal reset) now. Called on service
    /// drain so a clean shutdown restarts from a snapshot, not a
    /// replay. No-op on in-memory stores.
    pub fn flush(&self) -> Result<(), ApiError> {
        match &self.persist {
            None => Ok(()),
            Some(persist) => {
                let mut seq = persist.seq.lock().expect("persist poisoned");
                if seq.next_seq == 1 && self.entries.lock().expect("store poisoned").is_empty() {
                    return Ok(()); // nothing ever stored
                }
                self.write_snapshot(persist, &mut seq)
            }
        }
    }

    /// Point-in-time persistence counters; all zeros for an in-memory
    /// store.
    pub fn persist_stats(&self) -> PersistStats {
        self.persist
            .as_ref()
            .map(Persistence::stats)
            .unwrap_or_default()
    }

    /// What recovery found when this store was opened, if durable.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.persist.as_ref().map(|p| p.recovery)
    }

    /// The names currently stored, in no particular order.
    pub fn names(&self) -> Vec<String> {
        self.entries
            .lock()
            .expect("store poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// A sorted dump of every entry: `(name, version, body)`. Used by
    /// the recovery oracle to compare a recovered store against the
    /// expected prefix state.
    pub fn export(&self) -> Vec<(String, u64, StoredBody)> {
        let slots: Vec<(String, Arc<Mutex<StoreEntry>>)> = {
            let entries = self.entries.lock().expect("store poisoned");
            entries
                .iter()
                .map(|(name, slot)| (name.clone(), Arc::clone(slot)))
                .collect()
        };
        let mut dump: Vec<(String, u64, StoredBody)> = slots
            .into_iter()
            .map(|(name, slot)| {
                let entry = slot.lock().expect("store entry poisoned");
                (name, entry.version, entry.body.clone())
            })
            .collect();
        dump.sort_by(|a, b| a.0.cmp(&b.0));
        dump
    }

    /// The handle of `name`'s entry, if present. The caller locks the
    /// entry for the duration of its analysis.
    pub(crate) fn handle(&self, name: &str) -> Option<Arc<Mutex<StoreEntry>>> {
        self.entries
            .lock()
            .expect("store poisoned")
            .get(name)
            .map(Arc::clone)
    }
}

/// Diffs two bodies. A kind flip (uni ↔ dist) counts the whole new
/// body as changed — nothing structural carries over.
fn diff_bodies(old: &StoredBody, new: &StoredBody) -> StoreDiff {
    match (old, new) {
        (StoredBody::Uni(o), StoredBody::Uni(n)) => {
            let (chains, tasks) = diff_systems(o, n);
            StoreDiff {
                resources_changed: (chains > 0) as u64,
                chains_changed: chains,
                tasks_changed: tasks,
            }
        }
        (StoredBody::Dist(o), StoredBody::Dist(n)) => diff_dist(o, n),
        (_, new) => full_diff(new),
    }
}

/// Counts every resource, chain and task of `body` as changed.
fn full_diff(body: &StoredBody) -> StoreDiff {
    match body {
        StoredBody::Uni(system) => StoreDiff {
            resources_changed: 1,
            chains_changed: system.chains().len() as u64,
            tasks_changed: system.chains().iter().map(|c| c.tasks().len() as u64).sum(),
        },
        StoredBody::Dist(system) => StoreDiff {
            resources_changed: system.resources().len() as u64,
            chains_changed: system
                .resources()
                .iter()
                .map(|r| r.system().chains().len() as u64)
                .sum(),
            tasks_changed: system
                .resources()
                .iter()
                .flat_map(|r| r.system().chains())
                .map(|c| c.tasks().len() as u64)
                .sum(),
        },
    }
}

/// `(chains_changed, tasks_changed)` between two chain systems,
/// matching chains by name and tasks by position within a chain.
fn diff_systems(old: &System, new: &System) -> (u64, u64) {
    let mut chains = 0u64;
    let mut tasks = 0u64;
    for new_chain in new.chains() {
        match old.chain_by_name(new_chain.name()) {
            None => {
                chains += 1;
                tasks += new_chain.tasks().len() as u64;
            }
            Some((_, old_chain)) => {
                if old_chain == new_chain {
                    continue;
                }
                chains += 1;
                let (ot, nt) = (old_chain.tasks(), new_chain.tasks());
                for i in 0..ot.len().max(nt.len()) {
                    if ot.get(i) != nt.get(i) {
                        tasks += 1;
                    }
                }
            }
        }
    }
    for old_chain in old.chains() {
        if new.chain_by_name(old_chain.name()).is_none() {
            chains += 1;
            tasks += old_chain.tasks().len() as u64;
        }
    }
    (chains, tasks)
}

/// Diffs two distributed systems: resources are matched by name, each
/// matched pair diffed as chain systems; added/removed resources count
/// fully. A link added or removed marks its consumer-side resource
/// changed (its effective activation inputs move) even when the
/// resource's own declaration is untouched.
fn diff_dist(old: &DistributedSystem, new: &DistributedSystem) -> StoreDiff {
    let mut diff = StoreDiff::default();
    let mut changed_resources: Vec<String> = Vec::new();
    let old_by_name: HashMap<&str, &System> = old
        .resources()
        .iter()
        .map(|r| (r.name(), r.system()))
        .collect();
    let new_names: HashMap<&str, ()> = new.resources().iter().map(|r| (r.name(), ())).collect();

    for resource in new.resources() {
        match old_by_name.get(resource.name()) {
            None => {
                changed_resources.push(resource.name().to_owned());
                diff.chains_changed += resource.system().chains().len() as u64;
                diff.tasks_changed += resource
                    .system()
                    .chains()
                    .iter()
                    .map(|c| c.tasks().len() as u64)
                    .sum::<u64>();
            }
            Some(old_system) => {
                let (chains, tasks) = diff_systems(old_system, resource.system());
                if chains > 0 {
                    changed_resources.push(resource.name().to_owned());
                }
                diff.chains_changed += chains;
                diff.tasks_changed += tasks;
            }
        }
    }
    for resource in old.resources() {
        if !new_names.contains_key(resource.name()) {
            changed_resources.push(resource.name().to_owned());
            diff.chains_changed += resource.system().chains().len() as u64;
            diff.tasks_changed += resource
                .system()
                .chains()
                .iter()
                .map(|c| c.tasks().len() as u64)
                .sum::<u64>();
        }
    }

    // Links are compared as name quadruples so resource reordering is
    // not a change; a moved link dirties the consumer resource.
    let old_links = link_names(old);
    let new_links = link_names(new);
    for link in old_links.iter().filter(|l| !new_links.contains(l)) {
        changed_resources.push(link.2.clone());
    }
    for link in new_links.iter().filter(|l| !old_links.contains(l)) {
        changed_resources.push(link.2.clone());
    }

    changed_resources.sort_unstable();
    changed_resources.dedup();
    diff.resources_changed = changed_resources.len() as u64;
    diff
}

/// `(from_resource, from_chain, to_resource, to_chain)` per link.
fn link_names(system: &DistributedSystem) -> Vec<(String, String, String, String)> {
    system
        .links()
        .iter()
        .map(|link| {
            let (fr, fc) = system.site_names(link.from());
            let (tr, tc) = system.site_names(link.to());
            (fr, fc, tr, tc)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use twca_dist::DistributedSystemBuilder;
    use twca_model::parse_system;

    fn uni(wcet: u64) -> StoredBody {
        StoredBody::Uni(
            parse_system(&format!(
                "chain c periodic=100 deadline=100 {{ task t prio=1 wcet={wcet} }}
                 chain d periodic=200 {{ task u prio=2 wcet=5 }}"
            ))
            .unwrap(),
        )
    }

    fn dist(edit: Option<usize>) -> StoredBody {
        let mut builder = DistributedSystemBuilder::new();
        for i in 0..4 {
            let wcet = 10 + u64::from(edit == Some(i));
            let system = parse_system(&format!(
                "chain c{i} periodic=100 deadline=400 {{ task t{i} prio=1 wcet={wcet} }}"
            ))
            .unwrap();
            builder = builder.resource(format!("r{i}"), system);
        }
        StoredBody::Dist(
            builder
                .link(("r0", "c0"), ("r1", "c1"))
                .link(("r1", "c1"), ("r2", "c2"))
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn versions_count_up_and_diffs_localize_edits() {
        let store = SystemStore::new();
        assert_eq!(store.put("s", uni(10)).unwrap().version, 1);
        let receipt = store.put("s", uni(11)).unwrap();
        assert_eq!(receipt.version, 2);
        assert_eq!(
            receipt.diff,
            StoreDiff {
                resources_changed: 1,
                chains_changed: 1,
                tasks_changed: 1
            }
        );
        // Identical put: version bumps, nothing changed.
        let receipt = store.put("s", uni(11)).unwrap();
        assert_eq!(receipt.version, 3);
        assert!(receipt.diff.is_empty());
        // Names are independent entries.
        assert_eq!(store.put("other", uni(10)).unwrap().version, 1);
        let mut names = store.names();
        names.sort();
        assert_eq!(names, ["other", "s"]);
    }

    #[test]
    fn dist_diff_counts_only_the_edited_resource() {
        let store = SystemStore::new();
        store.put("d", dist(None)).unwrap();
        let receipt = store.put("d", dist(Some(2))).unwrap();
        assert_eq!(
            receipt.diff,
            StoreDiff {
                resources_changed: 1,
                chains_changed: 1,
                tasks_changed: 1
            }
        );
    }

    #[test]
    fn link_moves_dirty_the_consumer_resource() {
        let build = |second_target: &str| {
            let mut builder = DistributedSystemBuilder::new();
            for i in 0..4 {
                let system = parse_system(&format!(
                    "chain c{i} periodic=100 {{ task t{i} prio=1 wcet=10 }}"
                ))
                .unwrap();
                builder = builder.resource(format!("r{i}"), system);
            }
            StoredBody::Dist(
                builder
                    .link(("r0", "c0"), ("r1", "c1"))
                    .link(
                        ("r0", "c0"),
                        (second_target, format!("c{}", &second_target[1..])),
                    )
                    .build()
                    .unwrap(),
            )
        };
        let store = SystemStore::new();
        store.put("d", build("r2")).unwrap();
        let receipt = store.put("d", build("r3")).unwrap();
        // No chain declaration changed, but both link consumers moved.
        assert_eq!(receipt.diff.chains_changed, 0);
        assert_eq!(receipt.diff.resources_changed, 2);
    }

    #[test]
    fn bad_names_are_rejected_with_typed_errors() {
        let store = SystemStore::new();
        let long = "x".repeat(MAX_STORE_NAME + 1);
        for bad in ["", "a/b", "a\\b", "..", "a..b", "a\0b", long.as_str()] {
            let err = store.put(bad, uni(10)).unwrap_err();
            assert_eq!(err.kind, ApiErrorKind::Request, "name {bad:?}");
            assert!(
                err.message.contains("invalid store name"),
                "{}",
                err.message
            );
        }
        // Boundary: exactly the limit is fine, as are dots that are
        // not `..`.
        let edge = "x".repeat(MAX_STORE_NAME);
        assert!(store.put(&edge, uni(10)).is_ok());
        assert!(store.put("v1.2.plant", uni(10)).is_ok());
    }

    #[test]
    fn durable_puts_survive_reopen() {
        use crate::persist::MemIo;

        let io = Arc::new(MemIo::new());
        let (store, report) = SystemStore::durable(
            Arc::clone(&io) as Arc<dyn StoreIo>,
            PersistPolicy::default(),
        )
        .unwrap();
        assert_eq!(report, RecoveryReport::default());
        store.put("s", uni(10)).unwrap();
        store.put("s", uni(11)).unwrap();
        store.put("d", dist(None)).unwrap();
        let before = store.export();

        let (reopened, report) = SystemStore::durable(
            Arc::new(MemIo::from_state(io.state())) as Arc<dyn StoreIo>,
            PersistPolicy::default(),
        )
        .unwrap();
        assert_eq!(report.replayed, 3);
        assert_eq!(report.entries, 2);
        let after = reopened.export();
        assert_eq!(before.len(), after.len());
        for ((n0, v0, b0), (n1, v1, b1)) in before.iter().zip(after.iter()) {
            assert_eq!((n0, v0), (n1, v1));
            assert_eq!(render_body(b0).unwrap(), render_body(b1).unwrap());
        }
        // Version history continues where it left off.
        assert_eq!(reopened.put("s", uni(12)).unwrap().version, 3);
    }

    #[test]
    fn flush_snapshots_and_resets_the_journal() {
        use crate::persist::MemIo;

        let io = Arc::new(MemIo::new());
        let (store, _) = SystemStore::durable(
            Arc::clone(&io) as Arc<dyn StoreIo>,
            PersistPolicy::default(),
        )
        .unwrap();
        store.put("s", uni(10)).unwrap();
        store.flush().unwrap();
        let state = io.state();
        assert!(state[JOURNAL_FILE].is_empty());
        assert!(!state[SNAPSHOT_FILE].is_empty());
        let stats = store.persist_stats();
        assert_eq!(stats.journal_appends, 1);
        assert_eq!(stats.snapshots_written, 1);

        // Snapshot-only state (journal reset) recovers cleanly — the
        // snapshot-newer-than-journal edge.
        let (reopened, report) = SystemStore::durable(
            Arc::new(MemIo::from_state(state)) as Arc<dyn StoreIo>,
            PersistPolicy::default(),
        )
        .unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.replayed, 0);
        assert_eq!(reopened.put("s", uni(11)).unwrap().version, 2);
    }

    #[test]
    fn journal_failure_refuses_the_put_without_applying_it() {
        use crate::persist::MemIo;

        let io = Arc::new(MemIo::new());
        let (store, _) = SystemStore::durable(
            Arc::clone(&io) as Arc<dyn StoreIo>,
            PersistPolicy::default(),
        )
        .unwrap();
        store.put("s", uni(10)).unwrap();
        io.fail_after(0);
        let err = store.put("s", uni(11)).unwrap_err();
        assert_eq!(err.kind, ApiErrorKind::Persist);
        // The failed put is not visible: version unchanged.
        assert_eq!(store.export()[0].1, 1);
    }

    #[test]
    fn kind_flips_count_the_whole_new_body() {
        let store = SystemStore::new();
        store.put("s", uni(10)).unwrap();
        let receipt = store.put("s", dist(None)).unwrap();
        assert_eq!(receipt.diff.resources_changed, 4);
        assert_eq!(receipt.diff.chains_changed, 4);
        assert_eq!(receipt.diff.tasks_changed, 4);
    }
}
