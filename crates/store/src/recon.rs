//! The persisted rank index behind `qr2-recon`'s offline reconstruction.
//!
//! Where [`crate::AnswerStore`] persists individual top-k answers, the
//! [`RankIndex`] persists the state of an **offline rank reconstruction**
//! of one source: every tuple retrieved so far, plus the frontier of
//! query-space regions that are *not yet* fully retrieved. A region absent
//! from the frontier (and inside the reconstruction root) is complete —
//! the hybrid serving tier can answer ranking queries over it without a
//! single web-database probe.
//!
//! ## Format
//!
//! Records live in a [`KvStore`] (checksummed log, crash-recovered). Every
//! record embeds the **epoch** it was written under, the same staleness
//! idiom as [`crate::AnswerStore`]:
//!
//! * key `[0x00]` — metadata: `varint(epoch)`, `varint(budget_spent)`,
//!   `u8(has_root)` and, when set, the root region in
//!   [`crate::codec`] query format;
//! * key `[0x01]` — the frontier: `varint(epoch)`, the pending region
//!   list, then the atomic-overflow region list (each
//!   `varint(n)` + `n` encoded queries);
//! * key `[0x02] ++ u64-be(seq)` — one checkpointed tuple batch:
//!   `varint(epoch)` + the tuple list in [`crate::codec`] format.
//!
//! ## Crash safety
//!
//! A checkpoint appends the newly crawled tuple batch *first*, then
//! rewrites the frontier, then the metadata. A crash between the steps
//! leaves the frontier a **superset** of the truly uncovered regions: the
//! resumed driver re-crawls those regions and the duplicate tuples
//! deduplicate by id. The index can only ever under-claim coverage, never
//! over-claim it.
//!
//! Invalidation writes the new epoch first (one durable record), then
//! deletes the stale data; records whose epoch disagrees with the metadata
//! are dropped (and purged) at open — exactly the
//! [`crate::AnswerStore::bump_epoch`] discipline, so a crash between the
//! bump and the deletes cannot resurrect a stale reconstruction.

use std::collections::BTreeMap;
use std::path::Path;

use qr2_webdb::{SearchQuery, Tuple, TupleId};

use crate::codec::{
    decode_query, decode_tuples, encode_query, encode_tuples, get_varint, put_varint,
};
use crate::kv::KvStore;
use crate::{Result, StoreError};

const META_KEY: &[u8] = &[0x00];
const FRONTIER_KEY: &[u8] = &[0x01];
const BATCH_PREFIX: u8 = 0x02;

fn batch_key(seq: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(9);
    k.push(BATCH_PREFIX);
    k.extend_from_slice(&seq.to_be_bytes());
    k
}

fn encode_region_list(buf: &mut Vec<u8>, regions: &[SearchQuery]) {
    put_varint(buf, regions.len() as u64);
    for r in regions {
        encode_query(buf, r);
    }
}

fn decode_region_list(buf: &mut &[u8]) -> Result<Vec<SearchQuery>> {
    let n = get_varint(buf)? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push(decode_query(buf)?);
    }
    Ok(out)
}

/// Everything a reconstruction driver needs to resume, and a serving tier
/// needs to answer from: the decoded state of a [`RankIndex`].
#[derive(Debug, Clone)]
pub struct RankSnapshot {
    /// Staleness epoch the reconstruction was built under.
    pub epoch: u64,
    /// Root region of the reconstruction (`None` = never started).
    pub root: Option<SearchQuery>,
    /// Regions not yet fully retrieved (the resumable work-list).
    pub pending: Vec<SearchQuery>,
    /// Unsplittable regions that still overflowed: the hidden database
    /// holds more than `system-k` tuples identical on every searchable
    /// attribute there, so these regions can never be covered.
    pub atomic: Vec<SearchQuery>,
    /// Every tuple retrieved so far, deduplicated, sorted by [`TupleId`].
    pub tuples: Vec<Tuple>,
    /// Paid web-DB queries spent across all reconstruction jobs so far.
    pub budget_spent: u64,
}

impl RankSnapshot {
    /// An empty snapshot at `epoch`.
    pub fn empty(epoch: u64) -> RankSnapshot {
        RankSnapshot {
            epoch,
            root: None,
            pending: Vec::new(),
            atomic: Vec::new(),
            tuples: Vec::new(),
            budget_spent: 0,
        }
    }

    /// True when a root was crawled to completion (no pending work and no
    /// atomic holes).
    pub fn is_complete(&self) -> bool {
        self.root.is_some() && self.pending.is_empty() && self.atomic.is_empty()
    }
}

/// Durable storage for one source's offline rank reconstruction.
pub struct RankIndex {
    kv: KvStore,
    epoch: u64,
    root: Option<SearchQuery>,
    budget_spent: u64,
    next_batch: u64,
}

impl RankIndex {
    /// Open (or create) a rank index at `path`, replaying the log and
    /// purging any record written under a stale epoch.
    pub fn open(path: impl AsRef<Path>) -> Result<RankIndex> {
        let kv = KvStore::open(path)?;
        let (epoch, budget_spent, root) = match kv.get(META_KEY) {
            Some(mut raw) => {
                let epoch = get_varint(&mut raw)?;
                let budget = get_varint(&mut raw)?;
                if raw.is_empty() {
                    return Err(StoreError::Corrupt("truncated rank-index meta".into()));
                }
                let has_root = raw[0];
                raw = &raw[1..];
                let root = match has_root {
                    0 => None,
                    1 => Some(decode_query(&mut raw)?),
                    b => return Err(StoreError::Corrupt(format!("bad root flag {b}"))),
                };
                (epoch, budget, root)
            }
            None => (0, 0, None),
        };
        let mut index = RankIndex {
            kv,
            epoch,
            root,
            budget_spent,
            next_batch: 0,
        };
        // Purge epoch-mismatched leftovers (crash between bump and delete)
        // and find the next free batch sequence number.
        let mut stale: Vec<Vec<u8>> = Vec::new();
        for (k, v) in index.kv.iter() {
            let record_epoch = match k.first() {
                Some(&BATCH_PREFIX) => get_varint(&mut &v[..]).ok(),
                Some(b) if *b == FRONTIER_KEY[0] && k.len() == 1 => get_varint(&mut &v[..]).ok(),
                _ => continue,
            };
            if record_epoch != Some(index.epoch) {
                stale.push(k.to_vec());
            } else if k.first() == Some(&BATCH_PREFIX) && k.len() == 9 {
                let mut seq = [0u8; 8];
                seq.copy_from_slice(&k[1..9]);
                index.next_batch = index.next_batch.max(u64::from_be_bytes(seq) + 1);
            }
        }
        for key in stale {
            index.kv.delete(&key)?;
        }
        Ok(index)
    }

    /// The staleness epoch this reconstruction was built under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Paid web-DB queries spent across all reconstruction jobs so far.
    pub fn budget_spent(&self) -> u64 {
        self.budget_spent
    }

    /// Decode the full persisted state (for warm-starting a serving tier
    /// or resuming a driver). Tuples are deduplicated by id; a frontier
    /// record missing at the current epoch while a root is set degrades to
    /// `pending = [root]` — re-crawling from the root is always safe.
    pub fn load(&self) -> Result<RankSnapshot> {
        let (pending, atomic) = match self.kv.get(FRONTIER_KEY) {
            Some(mut raw) => {
                let _epoch = get_varint(&mut raw)?; // verified at open
                let pending = decode_region_list(&mut raw)?;
                let atomic = decode_region_list(&mut raw)?;
                (pending, atomic)
            }
            None => match &self.root {
                Some(root) => (vec![root.clone()], Vec::new()),
                None => (Vec::new(), Vec::new()),
            },
        };
        let mut by_id: BTreeMap<TupleId, Tuple> = BTreeMap::new();
        for (k, v) in self.kv.iter() {
            if k.first() != Some(&BATCH_PREFIX) {
                continue;
            }
            let mut raw = v;
            let _epoch = get_varint(&mut raw)?;
            for t in decode_tuples(&mut raw)? {
                by_id.entry(t.id).or_insert(t);
            }
        }
        Ok(RankSnapshot {
            epoch: self.epoch,
            root: self.root.clone(),
            pending,
            atomic,
            tuples: by_id.into_values().collect(),
            budget_spent: self.budget_spent,
        })
    }

    /// Start a fresh reconstruction of `root` at `epoch`: durably advance
    /// the metadata first, then drop every record of the previous
    /// reconstruction. Crash-safe (see the module docs).
    pub fn begin(&mut self, epoch: u64, root: &SearchQuery) -> Result<()> {
        self.epoch = epoch;
        self.root = Some(root.clone());
        self.budget_spent = 0;
        self.next_batch = 0;
        self.write_meta()?;
        self.delete_data_records()?;
        self.save_frontier(std::slice::from_ref(root), &[])?;
        self.kv.compact()
    }

    /// Drop the reconstruction entirely and move to `epoch` (durable
    /// metadata first, then deletes).
    pub fn clear(&mut self, epoch: u64) -> Result<()> {
        self.epoch = epoch;
        self.root = None;
        self.budget_spent = 0;
        self.next_batch = 0;
        self.write_meta()?;
        self.delete_data_records()?;
        self.kv.compact()
    }

    /// Append one checkpointed batch of crawled tuples under the current
    /// epoch. Call *before* [`RankIndex::save_frontier`] so a crash leaves
    /// the frontier a superset of the uncovered regions.
    pub fn append_tuples(&mut self, tuples: &[Tuple]) -> Result<()> {
        if tuples.is_empty() {
            return Ok(());
        }
        let mut value = Vec::new();
        put_varint(&mut value, self.epoch);
        encode_tuples(&mut value, tuples);
        let seq = self.next_batch;
        self.kv.put(&batch_key(seq), &value)?;
        self.next_batch = seq + 1;
        Ok(())
    }

    /// Durably rewrite the uncovered-region frontier.
    pub fn save_frontier(&mut self, pending: &[SearchQuery], atomic: &[SearchQuery]) -> Result<()> {
        let mut value = Vec::new();
        put_varint(&mut value, self.epoch);
        encode_region_list(&mut value, pending);
        encode_region_list(&mut value, atomic);
        self.kv.put(FRONTIER_KEY, &value)
    }

    /// Durably record the cumulative paid-query spend.
    pub fn save_budget(&mut self, budget_spent: u64) -> Result<()> {
        self.budget_spent = budget_spent;
        self.write_meta()
    }

    /// Compact the backing log.
    pub fn compact(&mut self) -> Result<()> {
        self.kv.compact()
    }

    fn write_meta(&mut self) -> Result<()> {
        let mut meta = Vec::new();
        put_varint(&mut meta, self.epoch);
        put_varint(&mut meta, self.budget_spent);
        match &self.root {
            Some(root) => {
                meta.push(1);
                encode_query(&mut meta, root);
            }
            None => meta.push(0),
        }
        self.kv.put(META_KEY, &meta)
    }

    fn delete_data_records(&mut self) -> Result<()> {
        let keys: Vec<Vec<u8>> = self
            .kv
            .iter()
            .filter(|(k, _)| *k != META_KEY)
            .map(|(k, _)| k.to_vec())
            .collect();
        for key in keys {
            self.kv.delete(&key)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr2_webdb::{AttrId, RangePred, Value};
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "qr2-recon-test-{}-{}-{name}.log",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock after epoch")
                .as_nanos()
        ));
        p
    }

    fn tuple(id: u32, x: f64) -> Tuple {
        Tuple::new(TupleId(id), vec![Value::Num(x)])
    }

    fn region(lo: f64, hi: f64) -> SearchQuery {
        SearchQuery::all().and_range(AttrId(0), RangePred::closed(lo, hi))
    }

    #[test]
    fn begin_checkpoint_reload_roundtrip() {
        let path = temp_path("roundtrip");
        {
            let mut idx = RankIndex::open(&path).unwrap();
            assert!(idx.load().unwrap().root.is_none());
            idx.begin(3, &region(0.0, 10.0)).unwrap();
            idx.append_tuples(&[tuple(2, 1.0), tuple(1, 0.5)]).unwrap();
            idx.save_frontier(&[region(5.0, 10.0)], &[]).unwrap();
            idx.save_budget(7).unwrap();
        }
        let idx = RankIndex::open(&path).unwrap();
        let snap = idx.load().unwrap();
        assert_eq!(snap.epoch, 3);
        assert_eq!(snap.root, Some(region(0.0, 10.0)));
        assert_eq!(snap.pending, vec![region(5.0, 10.0)]);
        assert!(snap.atomic.is_empty());
        assert_eq!(snap.budget_spent, 7);
        // Tuples are deduplicated and sorted by id.
        assert_eq!(
            snap.tuples.iter().map(|t| t.id.0).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert!(!snap.is_complete());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn complete_when_frontier_empty() {
        let path = temp_path("complete");
        let mut idx = RankIndex::open(&path).unwrap();
        idx.begin(0, &region(0.0, 1.0)).unwrap();
        idx.append_tuples(&[tuple(1, 0.5)]).unwrap();
        idx.save_frontier(&[], &[]).unwrap();
        assert!(idx.load().unwrap().is_complete());
        idx.save_frontier(&[], &[region(0.5, 0.5)]).unwrap();
        assert!(
            !idx.load().unwrap().is_complete(),
            "atomic holes block completeness"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_epoch_records_purged_at_open() {
        let path = temp_path("stale");
        {
            let mut idx = RankIndex::open(&path).unwrap();
            idx.begin(0, &region(0.0, 1.0)).unwrap();
            idx.append_tuples(&[tuple(9, 0.25)]).unwrap();
            idx.save_frontier(&[], &[]).unwrap();
        }
        {
            // Simulate a crash between an epoch bump and the deletes:
            // rewrite only the metadata at epoch 1.
            let mut kv = KvStore::open(&path).unwrap();
            let mut meta = Vec::new();
            put_varint(&mut meta, 1);
            put_varint(&mut meta, 0);
            meta.push(0);
            kv.put(META_KEY, &meta).unwrap();
        }
        let idx = RankIndex::open(&path).unwrap();
        let snap = idx.load().unwrap();
        assert_eq!(snap.epoch, 1);
        assert!(snap.root.is_none());
        assert!(snap.tuples.is_empty(), "epoch-0 tuples must not survive");
        assert!(snap.pending.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_frontier_degrades_to_root() {
        let path = temp_path("degrade");
        {
            let mut idx = RankIndex::open(&path).unwrap();
            idx.begin(2, &region(0.0, 4.0)).unwrap();
        }
        {
            // Drop the frontier record, as a crash straight after `begin`'s
            // meta write (before the frontier write) would.
            let mut kv = KvStore::open(&path).unwrap();
            kv.delete(FRONTIER_KEY).unwrap();
        }
        let idx = RankIndex::open(&path).unwrap();
        let snap = idx.load().unwrap();
        assert_eq!(
            snap.pending,
            vec![region(0.0, 4.0)],
            "no frontier record must mean 'everything still pending'"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn clear_drops_everything() {
        let path = temp_path("clear");
        let mut idx = RankIndex::open(&path).unwrap();
        idx.begin(0, &region(0.0, 1.0)).unwrap();
        idx.append_tuples(&[tuple(1, 0.5)]).unwrap();
        idx.save_budget(12).unwrap();
        idx.clear(4).unwrap();
        let snap = idx.load().unwrap();
        assert_eq!(snap.epoch, 4);
        assert!(snap.root.is_none());
        assert!(snap.tuples.is_empty());
        assert_eq!(snap.budget_spent, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batch_sequence_survives_reopen() {
        let path = temp_path("seq");
        {
            let mut idx = RankIndex::open(&path).unwrap();
            idx.begin(0, &region(0.0, 1.0)).unwrap();
            idx.append_tuples(&[tuple(1, 0.1)]).unwrap();
            idx.append_tuples(&[tuple(2, 0.2)]).unwrap();
        }
        {
            let mut idx = RankIndex::open(&path).unwrap();
            idx.append_tuples(&[tuple(3, 0.3)]).unwrap();
        }
        let idx = RankIndex::open(&path).unwrap();
        assert_eq!(idx.load().unwrap().tuples.len(), 3);
        std::fs::remove_file(&path).ok();
    }
}
