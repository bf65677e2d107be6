//! Fine-grained incremental persistence of corpus sub-artifacts.
//!
//! The artifact store's per-job checkpoints ([`crate::artifact`]) are
//! keyed by an *image-level* content hash: change one byte of the
//! binary and the whole job recomputes. This module adds the layer
//! below — the corpus cache's *sub-artifacts* are checkpointed to disk
//! individually, each under its own content-derived key:
//!
//! | tier       | one entry per                   | key derived from                     |
//! |------------|---------------------------------|--------------------------------------|
//! | `exec`     | distinct function body          | position-independent WL content label + analysis config salt |
//! | `model`    | distinct tracelet multiset      | commutative hash of the trained windows + SLM depth |
//! | `distance` | ordered model pair × metric     | both model keys + metric tag         |
//! | `lifting`  | family lifting problem          | member model keys + edge list + tie config |
//!
//! Because every key is content-derived, *dirty-set propagation needs
//! no bookkeeping*: editing one function changes its WL label, which
//! misses the exec tier, which changes the tracelet multisets of
//! exactly the types that observe it, which changes their pool keys,
//! which misses the model tier, which invalidates precisely the
//! distance rows touching a changed model and the lift keys of the
//! families containing a changed type. Everything else re-keys
//! identically and is served from disk. In particular the exec key is
//! independent of the function's *address*, so byte-identical
//! functions at shifted offsets still hit (the image-level
//! [`crate::artifact::content_key`] cannot do this — see its docs).
//!
//! On-disk layout, under the artifact store root:
//!
//! ```text
//! <root>/sub/<tier>/<key:032x>.sub   (loose: source of truth)
//! <root>/sub/snapshot.pack           (read-optimized accelerator)
//! ```
//!
//! The loose files give scrub its per-artifact quarantine granularity;
//! the snapshot pack bundles the same frames into one file so a warm
//! preload is one large read instead of thousands of tiny opens.
//! Preload imports a pack entry only when the matching loose file is
//! present in the tier listing (the listing is authoritative — a
//! quarantined artifact cannot be resurrected from a stale pack), and
//! falls back to loose reads for anything the pack cannot serve.
//!
//! Each file is framed as:
//!
//! ```text
//! magic "ROCKSUB\x01" | tier tag u8 | key lo u64 | key hi u64
//! | payload len u64 | payload | FNV-1a checksum u64 (over everything
//! before it)
//! ```
//!
//! Staleness defenses are layered: the frame checksum catches torn or
//! bit-rotted files; the frame's tier/key must agree with the path the
//! file was found under (a misfiled artifact is rejected, not
//! re-homed); and [`rock_core::CorpusCache::import_entry`] re-derives
//! each payload's own key from its decoded content (a model must
//! reproduce its pool key, a distance its disk key), so a payload can
//! never be loaded under a key it does not hash to. A rejected file is
//! counted ([`IncrStats::corrupt_skipped`]) and simply recomputes —
//! degradation, never stale reuse. `rock store scrub` quarantines such
//! files individually without touching their tier siblings.
//!
//! Writes are write-only-new (first-write-wins, like the in-memory
//! corpus tiers) through a temp file + atomic rename; in `durable`
//! mode files are fsynced before rename and each tier directory after
//! its batch. All traffic shares the store's [`crate::vfs::Vfs`] seam,
//! retry policy, and fault accounting, so chaos tests exercise this
//! layer with the same storage faults as the artifact layer.
//!
//! The warm ≡ cold invariant holds end to end: preloaded entries only
//! ever short-circuit work whose outputs are bit-identical to
//! recomputation (enforced by `tests/incremental_delta.rs`), and
//! [`IncrStats`] counters ride in batch and daemon totals only, never
//! in the pipeline's own registry or diagnostics.

use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use rock_core::{CorpusCache, IncrStats, SubTier};

use crate::artifact::{ArtifactStore, OpClass};
use crate::wire::{fnv1a, Reader, Writer};

/// The 8-byte sub-artifact file magic; the trailing byte is the format
/// version. Bumps invalidate every existing sub-artifact.
pub const SUB_MAGIC: &[u8; 8] = b"ROCKSUB\x01";

/// The 8-byte snapshot-pack magic; the trailing byte is the format
/// version. Bumps make existing packs unreadable, which merely drops
/// preload back to loose files until the next flush rewrites the pack.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"ROCKSPK\x01";

/// Filename of the read-optimized snapshot pack, directly under
/// `<root>/sub/`. The pack bundles every framed sub-artifact into one
/// file so a warm preload costs one read instead of one per artifact —
/// on the patch-and-rerun critical path, thousands of tiny loose-file
/// opens are the dominant cost. The loose files stay the source of
/// truth (scrub granularity, first-write-wins); the pack is purely an
/// accelerator and is rebuilt by any flush that wrote something.
pub const SNAPSHOT_NAME: &str = "snapshot.pack";

/// The filename of one sub-artifact: 32 lowercase hex digits + `.sub`.
pub fn sub_file_name(key: u128) -> String {
    format!("{key:032x}.sub")
}

/// Parses a `<key:032x>.sub` filename back to its key. Returns `None`
/// unless the name round-trips exactly (length, case, suffix).
pub fn key_of_sub_name(name: &str) -> Option<u128> {
    let hex = name.strip_suffix(".sub")?;
    if hex.len() != 32 {
        return None;
    }
    let key = u128::from_str_radix(hex, 16).ok()?;
    (name == sub_file_name(key)).then_some(key)
}

/// Frames one sub-artifact payload for disk.
pub fn encode_sub(tier: SubTier, key: u128, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(tier.tag());
    w.u64(key as u64);
    w.u64((key >> 64) as u64);
    w.len(payload.len());
    let header = w.into_bytes();
    let mut buf = Vec::with_capacity(SUB_MAGIC.len() + header.len() + payload.len() + 8);
    buf.extend_from_slice(SUB_MAGIC);
    buf.extend_from_slice(&header);
    buf.extend_from_slice(payload);
    let checksum = fnv1a(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// Decodes a framed sub-artifact. Checksum, magic, tier tag, and
/// payload length are all verified; the payload itself is *not*
/// validated here (that is the corpus importer's job).
pub fn decode_sub(bytes: &[u8]) -> Result<(SubTier, u128, Vec<u8>), String> {
    if bytes.len() < SUB_MAGIC.len() + 1 + 8 + 8 + 8 + 8 {
        return Err("file shorter than the fixed frame".into());
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let checksum = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    if fnv1a(body) != checksum {
        return Err("checksum mismatch".into());
    }
    if &body[..SUB_MAGIC.len()] != SUB_MAGIC {
        return Err("bad magic or unsupported format version".into());
    }
    let mut r = Reader::new(&body[SUB_MAGIC.len()..]);
    let fail = |e: crate::wire::WireError| e.to_string();
    let tag = r.u8("tier tag").map_err(fail)?;
    let Some(tier) = SubTier::from_tag(tag) else {
        return Err(format!("unknown tier tag {tag}"));
    };
    let lo = r.u64("key lo").map_err(fail)?;
    let hi = r.u64("key hi").map_err(fail)?;
    let key = (lo as u128) | ((hi as u128) << 64);
    let payload_len = r.len("payload length").map_err(fail)?;
    let payload_start = SUB_MAGIC.len() + 1 + 8 + 8 + 8;
    if body.len() - payload_start != payload_len {
        return Err("payload length field disagrees with file size".into());
    }
    Ok((tier, key, body[payload_start..].to_vec()))
}

/// Bundles already-framed sub-artifacts into one snapshot pack:
///
/// ```text
/// magic "ROCKSPK\x01" | entry count u64
/// | count × (frame len u64 | encode_sub frame)
/// | FNV-1a checksum u64 (over everything before it)
/// ```
///
/// Each embedded frame keeps its own checksum, so a pack entry is
/// exactly as trustworthy as the loose file it mirrors.
pub fn encode_snapshot(frames: &[Vec<u8>]) -> Vec<u8> {
    let mut w = Writer::new();
    w.len(frames.len());
    for frame in frames {
        w.blob(frame);
    }
    let body = w.into_bytes();
    let mut buf = Vec::with_capacity(SNAPSHOT_MAGIC.len() + body.len() + 8);
    buf.extend_from_slice(SNAPSHOT_MAGIC);
    buf.extend_from_slice(&body);
    let checksum = fnv1a(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// Decodes a snapshot pack into its (tier, key, payload) entries.
/// Whole-file checksum, magic, entry framing, and each embedded
/// sub-artifact frame are all verified; any damage rejects the whole
/// pack (callers fall back to loose files — the pack is never the only
/// copy).
pub fn decode_snapshot(bytes: &[u8]) -> Result<Vec<(SubTier, u128, Vec<u8>)>, String> {
    if bytes.len() < SNAPSHOT_MAGIC.len() + 8 + 8 {
        return Err("pack shorter than the fixed frame".into());
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let checksum = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    if fnv1a(body) != checksum {
        return Err("pack checksum mismatch".into());
    }
    if &body[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err("bad pack magic or unsupported format version".into());
    }
    let mut r = Reader::new(&body[SNAPSHOT_MAGIC.len()..]);
    let fail = |e: crate::wire::WireError| e.to_string();
    let count = r.len("entry count").map_err(fail)?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let frame = r.blob("pack entry").map_err(fail)?;
        entries.push(decode_sub(&frame)?);
    }
    if !r.is_at_end() {
        return Err("trailing bytes after the last pack entry".into());
    }
    Ok(entries)
}

/// Deep verification for scrub: the frame must decode, its tier and
/// key must match where the file was found, and the payload must pass
/// the corpus importer's full content validation (replayed into
/// `scratch`, a throwaway cache).
pub fn verify_sub_bytes(
    tier: SubTier,
    key: u128,
    bytes: &[u8],
    scratch: &CorpusCache,
) -> Result<(), String> {
    let (t, k, payload) = decode_sub(bytes)?;
    if t != tier {
        return Err(format!("tier {} does not match directory {}", t.name(), tier.name()));
    }
    if k != key {
        return Err(format!("key {k:032x} does not match filename {key:032x}"));
    }
    if !scratch.import_entry(t, k, &payload) {
        return Err("payload failed corpus validation".into());
    }
    Ok(())
}

/// Restores every trusted sub-artifact on disk into `corpus`.
///
/// Untrusted files (bad frame, tier/key mismatch, payload that fails
/// the importer's content validation) are skipped and counted — they
/// recompute, and the next flush or scrub deals with them. Call before
/// running jobs; preloading is cheap relative to one reconstruction
/// and makes every unchanged function/type/pair/family a cache hit.
pub fn preload_subartifacts(store: &ArtifactStore, corpus: &CorpusCache) -> IncrStats {
    let mut stats = IncrStats::default();
    // Gather the per-tier listings up front (one readdir per tier):
    // the listings are the index of what the store currently trusts.
    // Everything the snapshot pack can serve is imported from it in
    // one read; only stragglers (entries newer than the pack, or a
    // corrupt/missing pack) fall back to loose-file reads, fanned
    // across threads. Preload sits on the patch-and-rerun critical
    // path, where a serial loop over thousands of small files would
    // eat the very latency the incremental store exists to save.
    let mut work: Vec<(SubTier, PathBuf, u128)> = Vec::new();
    for tier in SubTier::ALL {
        let dir = store.sub_tier_dir(tier);
        let files = match store.with_retry_op(OpClass::Read, || store.vfs().list(&dir)) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(_) => {
                stats.io_errors += 1;
                continue;
            }
        };
        for file in files {
            let name = file_name(&file);
            if name.ends_with(".sub.tmp") {
                continue; // crash debris; the open-time sweep owns it
            }
            let Some(key) = key_of_sub_name(&name) else {
                stats.corrupt_skipped += 1;
                continue;
            };
            work.push((tier, file, key));
        }
    }
    // Serve what we can from the snapshot pack first. An entry is only
    // imported if its loose file appears in the tier listing gathered
    // above — the listing is authoritative, so a quarantined or
    // deleted artifact can never be resurrected from a stale pack.
    // Any pack damage (or a pack entry whose payload fails the
    // importer) simply leaves that entry to the loose-file path below.
    let listed: HashSet<(u8, u128)> = work.iter().map(|(t, _, k)| (t.tag(), *k)).collect();
    let mut served: HashSet<(u8, u128)> = HashSet::new();
    let snap_path = store.sub_dir().join(SNAPSHOT_NAME);
    match store.with_retry_op(OpClass::Read, || store.vfs().read(&snap_path)) {
        Ok(bytes) => match decode_snapshot(&bytes) {
            Ok(entries) => {
                for (tier, key, payload) in entries {
                    let id = (tier.tag(), key);
                    if listed.contains(&id)
                        && !served.contains(&id)
                        && corpus.import_entry(tier, key, &payload)
                    {
                        stats.preloaded += 1;
                        served.insert(id);
                    }
                }
            }
            Err(_) => stats.corrupt_skipped += 1, // scrub quarantines it
        },
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(_) => stats.io_errors += 1,
    }
    work.retain(|(t, _, k)| !served.contains(&(t.tag(), *k)));
    let preload_one =
        |(tier, file, key): &(SubTier, PathBuf, u128), local: &mut IncrStats| match store
            .with_retry_op(OpClass::Read, || store.vfs().read(file))
        {
            Ok(bytes) => match decode_sub(&bytes) {
                Ok((t, k, payload)) if t == *tier && k == *key => {
                    if corpus.import_entry(t, k, &payload) {
                        local.preloaded += 1;
                    } else {
                        local.corrupt_skipped += 1;
                    }
                }
                _ => local.corrupt_skipped += 1,
            },
            Err(_) => local.io_errors += 1,
        };
    stats.add(&for_each_parallel(&work, preload_one));
    stats
}

/// Runs `f` over `work` on a small thread pool, summing the per-thread
/// [`IncrStats`]. Falls back to the calling thread for small batches,
/// where spawn overhead would dominate.
fn for_each_parallel<T, F>(work: &[T], f: F) -> IncrStats
where
    T: Sync,
    F: Fn(&T, &mut IncrStats) + Sync,
{
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(8);
    let mut stats = IncrStats::default();
    if threads <= 1 || work.len() < 64 {
        for item in work {
            f(item, &mut stats);
        }
        return stats;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = IncrStats::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = work.get(i) else { break };
                        f(item, &mut local);
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            stats.add(&handle.join().expect("preload worker panicked"));
        }
    });
    stats
}

/// Writes every corpus entry not yet on disk to the store, one framed
/// file per sub-artifact (temp file + atomic rename; fsyncs in
/// `durable` mode).
///
/// Entries whose file already exists are never rewritten
/// (first-write-wins, matching the in-memory tiers), so a flush after
/// a warm run touches only the genuinely new work.
pub fn flush_subartifacts(store: &ArtifactStore, corpus: &CorpusCache) -> IncrStats {
    let mut stats = IncrStats::default();
    let entries = corpus.export_entries();
    for tier in SubTier::ALL {
        let tier_entries: Vec<_> = entries.iter().filter(|(t, _, _)| *t == tier).collect();
        if tier_entries.is_empty() {
            continue;
        }
        let dir = store.sub_tier_dir(tier);
        if store.with_retry_op(OpClass::Write, || store.vfs().create_dir_all(&dir)).is_err() {
            stats.io_errors += 1;
            continue;
        }
        let existing: HashSet<String> = store
            .vfs()
            .list(&dir)
            .map(|files| files.iter().map(|f| file_name(f)).collect())
            .unwrap_or_default();
        let mut fresh: Vec<(u128, &Vec<u8>)> = Vec::new();
        for (_, key, payload) in tier_entries {
            if existing.contains(&sub_file_name(*key)) {
                stats.unchanged += 1;
            } else {
                fresh.push((*key, payload));
            }
        }
        // Distinct keys mean distinct tmp and destination paths, so the
        // writes commute; fan them out like the preload reads.
        let flush_one = |(key, payload): &(u128, &Vec<u8>), local: &mut IncrStats| {
            let name = sub_file_name(*key);
            let bytes = encode_sub(tier, *key, payload);
            let tmp = dir.join(format!(".{name}.tmp"));
            let dst = dir.join(&name);
            let result = store.with_retry_op(OpClass::Write, || {
                store.vfs().write(&tmp, &bytes)?;
                if store.durable() {
                    store.vfs().sync_file(&tmp)?;
                }
                store.vfs().rename(&tmp, &dst)
            });
            match result {
                Ok(()) => local.flushed += 1,
                Err(_) => {
                    local.io_errors += 1;
                    let _ = store.vfs().remove_file(&tmp);
                }
            }
        };
        let tier_stats = for_each_parallel(&fresh, flush_one);
        let wrote = tier_stats.flushed > 0;
        stats.add(&tier_stats);
        if wrote && store.durable() && store.vfs().sync_dir(&dir).is_err() {
            stats.io_errors += 1;
        }
    }
    // Rebuild the read-optimized snapshot pack whenever the loose set
    // moved (or the pack is missing — e.g. a prior pack write failed),
    // from everything the corpus currently holds. The in-memory corpus
    // is a superset of what this flush wrote, so the pack mirrors the
    // loose files it accelerates; preload's listing gate keeps any
    // momentary divergence harmless.
    if !entries.is_empty() {
        let sub_root = store.sub_dir();
        let have_pack = store
            .vfs()
            .list(&sub_root)
            .map(|fs| fs.iter().any(|f| file_name(f) == SNAPSHOT_NAME))
            .unwrap_or(false);
        if stats.flushed > 0 || !have_pack {
            let frames: Vec<Vec<u8>> =
                entries.iter().map(|(t, k, p)| encode_sub(*t, *k, p)).collect();
            let bytes = encode_snapshot(&frames);
            let tmp = sub_root.join(format!(".{SNAPSHOT_NAME}.tmp"));
            let dst = sub_root.join(SNAPSHOT_NAME);
            let result = store.with_retry_op(OpClass::Write, || {
                store.vfs().create_dir_all(&sub_root)?;
                store.vfs().write(&tmp, &bytes)?;
                if store.durable() {
                    store.vfs().sync_file(&tmp)?;
                }
                store.vfs().rename(&tmp, &dst)
            });
            match result {
                Ok(()) if store.durable() && store.vfs().sync_dir(&sub_root).is_err() => {
                    stats.io_errors += 1;
                }
                Ok(()) => {}
                Err(_) => {
                    stats.io_errors += 1;
                    let _ = store.vfs().remove_file(&tmp);
                }
            }
        }
    }
    stats
}

fn file_name(path: &Path) -> String {
    path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let payload = vec![1u8, 2, 3, 4, 5];
        let key = 0xdead_beef_0123_4567_89ab_cdef_1122_3344u128;
        for tier in SubTier::ALL {
            let bytes = encode_sub(tier, key, &payload);
            let (t, k, p) = decode_sub(&bytes).expect("round trip");
            assert_eq!(t, tier);
            assert_eq!(k, key);
            assert_eq!(p, payload);
        }
    }

    #[test]
    fn frame_rejects_damage() {
        let bytes = encode_sub(SubTier::Model, 42, b"payload");
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(decode_sub(&bad).is_err(), "flip at byte {i} must be caught");
        }
        assert!(decode_sub(&bytes[..bytes.len() - 1]).is_err(), "truncation must be caught");
        assert!(decode_sub(&[]).is_err());
    }

    #[test]
    fn frame_rejects_unknown_tier_tag() {
        let bytes = encode_sub(SubTier::Exec, 7, b"x");
        // Rebuild with a bogus tier tag and a fixed-up checksum: the
        // tag check itself must fire, not just the checksum.
        let mut bad = bytes[..bytes.len() - 8].to_vec();
        bad[SUB_MAGIC.len()] = 99;
        let checksum = fnv1a(&bad);
        bad.extend_from_slice(&checksum.to_le_bytes());
        let err = decode_sub(&bad).expect_err("bad tag");
        assert!(err.contains("tier tag"), "{err}");
    }

    #[test]
    fn sub_names_round_trip_and_reject_lookalikes() {
        let key = 0x0000_0000_0000_0000_0000_0000_0000_002au128;
        let name = sub_file_name(key);
        assert_eq!(name, "0000000000000000000000000000002a.sub");
        assert_eq!(key_of_sub_name(&name), Some(key));
        assert_eq!(key_of_sub_name("0000000000000000000000000000002A.sub"), None);
        assert_eq!(key_of_sub_name("2a.sub"), None);
        assert_eq!(key_of_sub_name("0000000000000000000000000000002a.art"), None);
        assert_eq!(key_of_sub_name(".0000000000000000000000000000002a.sub.tmp"), None);
    }

    #[test]
    fn snapshot_round_trips() {
        let frames = vec![
            encode_sub(SubTier::Exec, 1, b"\x00abc"),
            encode_sub(SubTier::Model, 0xffee_ddcc_bbaa_9988_7766_5544_3322_1100, b"m"),
            encode_sub(SubTier::Lifting, 7, &[]),
        ];
        let pack = encode_snapshot(&frames);
        let entries = decode_snapshot(&pack).expect("round trip");
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0], (SubTier::Exec, 1, b"\x00abc".to_vec()));
        assert_eq!(
            entries[1],
            (SubTier::Model, 0xffee_ddcc_bbaa_9988_7766_5544_3322_1100, b"m".to_vec())
        );
        assert_eq!(entries[2], (SubTier::Lifting, 7, Vec::new()));
        let empty = decode_snapshot(&encode_snapshot(&[])).expect("empty pack");
        assert!(empty.is_empty());
    }

    #[test]
    fn snapshot_rejects_damage() {
        let pack = encode_snapshot(&[encode_sub(SubTier::Distance, 9, b"d")]);
        for i in 0..pack.len() {
            let mut bad = pack.clone();
            bad[i] ^= 0x01;
            assert!(decode_snapshot(&bad).is_err(), "flip at byte {i} must be caught");
        }
        assert!(decode_snapshot(&pack[..pack.len() - 1]).is_err(), "truncation must be caught");
        assert!(decode_snapshot(&[]).is_err());
        // A sub-artifact frame is not a pack.
        assert!(decode_snapshot(&encode_sub(SubTier::Exec, 1, b"x")).is_err());
    }

    #[test]
    fn verify_rejects_misfiled_frames() {
        let scratch = CorpusCache::new();
        let bytes = encode_sub(SubTier::Lifting, 5, &[]);
        let err = verify_sub_bytes(SubTier::Model, 5, &bytes, &scratch).expect_err("tier");
        assert!(err.contains("does not match directory"), "{err}");
        let err = verify_sub_bytes(SubTier::Lifting, 6, &bytes, &scratch).expect_err("key");
        assert!(err.contains("does not match filename"), "{err}");
    }
}
