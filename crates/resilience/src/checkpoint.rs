//! Sharded, atomic checkpoint/restore for worker groups, and every
//! checkpoint format the workers speak.
//!
//! **One contract.** A checkpointable worker answers `save_shard` with
//! [`encode_shard`]: one padded row carrying *its own slice* of the flat
//! parameter vector plus the matching Adam moments — the (p,t,d)-aware
//! partition for replicated workers (the model-parallel group tiles the
//! vector; only one data-parallel replica owns shards), or the ZeRO
//! shard each rank already holds — so a checkpoint is ~one copy of the
//! model, not `world` copies. It reads its `load_checkpoint` input with
//! [`AssembledState::from_load_input`]. [`collect_state`] assembles the
//! shards in memory.
//!
//! **Atomic**: every shard file is written `tmp+rename`; a manifest
//! records each shard's FNV-1a content hash; a step directory only
//! counts once its `COMMIT` marker (also `tmp+rename`) lands — before
//! that, [`CheckpointStore::latest_step`] ignores it and
//! [`CheckpointStore::load_group`] refuses it.
//!
//! **Restore** reassembles the full vectors from the owner shards
//! (verifying hashes and that the shard ranges tile the vector exactly),
//! then broadcasts them into a — typically freshly spawned — worker
//! group through `load_checkpoint`, checksum and RNG round included.

use std::fs;
use std::io::{self, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};

use hf_core::{CoreError, DataProto, Protocol, Result, WorkerGroup};

/// The worker method checkpointing dispatches (ALL_TO_ALL).
pub const SAVE_SHARD_METHOD: &str = "save_shard";

/// A `save_shard` reply: the shard of the parameters and of both Adam
/// moments at a padded width uniform across ranks, and a header of seven
/// exact `u32` words `[rank, start, len, owner, total, gen_round, opt_t]`.
const SHARD_COLUMNS: [&str; 3] = ["shard_params", "shard_m", "shard_v"];
const SHARD_META: &str = "shard_meta";
const SHARD_META_WIDTH: usize = 7;

/// A `load_checkpoint` input: the full vectors, with the parameter
/// checksum and the two rounds in its metadata.
const STATE_COLUMNS: [&str; 3] = ["params", "opt_m", "opt_v"];
const CHECKSUM_META: &str = "checksum";
const GEN_ROUND_META: &str = "gen_round";
const OPT_T_META: &str = "opt_t";

const SHARD_MAGIC: &[u8; 4] = b"HFS1";

/// What every owner shard of a group agrees on and a manifest header
/// records: `(total, gen_round, opt_t)`.
type Rounds = (usize, u64, u64);

/// FNV-1a over a byte stream: the content hash of a shard file.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf29ce484222325, |h, b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

/// FNV-1a over the bit pattern of a parameter vector — the §9
/// silent-data-corruption guard of `load_checkpoint`.
fn param_checksum(params: &[f32]) -> u64 {
    fnv1a(params.iter().flat_map(|p| p.to_le_bytes()))
}

fn io_err(context: &str, e: io::Error) -> CoreError {
    CoreError::Data(format!("checkpoint {context}: {e}"))
}

/// Writes `bytes` to `path` atomically (`path.tmp` then rename), so a
/// crash never leaves a half-written file under the final name.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp).map_err(|e| io_err("create tmp", e))?;
        f.write_all(bytes).map_err(|e| io_err("write tmp", e))?;
        f.sync_all().map_err(|e| io_err("sync tmp", e))?;
    }
    fs::rename(&tmp, path).map_err(|e| io_err("rename", e))
}

/// Slice `pos` of a `total`-long vector cut into `parts` equal slices:
/// its range (short or empty at the tail) and the padded slice width.
pub fn shard_range(total: usize, pos: usize, parts: usize) -> (Range<usize>, usize) {
    let padded = total.div_ceil(parts);
    ((pos * padded).min(total)..((pos + 1) * padded).min(total), padded)
}

/// Where one rank's shard sits in the flat vector, and the rounds the
/// state was saved at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHeader {
    /// The replying rank.
    pub rank: usize,
    /// Offset of the shard in the flat vector.
    pub start: usize,
    /// Values in the shard (the row is padded past them).
    pub len: usize,
    /// Whether the shard goes into the checkpoint: each slice has one
    /// owner, the other data-parallel replicas hold copies of it.
    pub owner: bool,
    /// Length of the flat vector.
    pub total: usize,
    /// Generation RNG round (0 for models that do not sample).
    pub gen_round: u64,
    /// Adam step count.
    pub opt_t: u64,
}

/// One rank's `save_shard` reply: `shard` holds the rank's `head.len`
/// values of the parameters and both Adam moments, each padded to
/// `padded` so the ALL_TO_ALL concatenation aligns.
pub fn encode_shard(head: ShardHeader, padded: usize, shard: [&[f32]; 3]) -> Result<DataProto> {
    let mut out = DataProto::with_rows(1);
    for (name, values) in SHARD_COLUMNS.into_iter().zip(shard) {
        assert!(values.len() == head.len && head.len <= padded, "{name} of {head:?}");
        let mut row = Vec::with_capacity(padded);
        row.extend_from_slice(values);
        row.resize(padded, 0.0);
        out.insert_f32(name, row, padded);
    }
    let ShardHeader { rank, start, len, owner, total, gen_round, opt_t } = head;
    let words = [rank, start, len, usize::from(owner), total].map(|v| v as u64);
    let words = (words.into_iter().chain([gen_round, opt_t]))
        .map(|v| {
            u32::try_from(v).map_err(|_| CoreError::Data(format!("shard header {v} exceeds u32")))
        })
        .collect::<Result<_>>()?;
    out.insert_tokens(SHARD_META, words, SHARD_META_WIDTH);
    Ok(out)
}

/// One row of a collected `save_shard` reply.
#[derive(Debug, Clone, Copy)]
pub struct Shard<'a> {
    /// The rank's header.
    pub head: ShardHeader,
    /// The parameters and both Adam moments, `head.len` values each.
    pub state: [&'a [f32]; 3],
}

/// Every row of a `save_shard` reply collected ALL_TO_ALL, in rank
/// order.
pub fn decode_shards(reply: &DataProto) -> Result<Vec<Shard<'_>>> {
    let (meta, mw) = reply.tokens(SHARD_META)?;
    let [params, m, v] = SHARD_COLUMNS.map(|name| reply.f32(name));
    let ((params, pw), (m, m_width), (v, v_width)) = (params?, m?, v?);
    if mw != SHARD_META_WIDTH || m_width != pw || v_width != pw {
        return Err(CoreError::Data(format!(
            "malformed shard reply: widths {mw}, {pw}, {m_width}, {v_width}"
        )));
    }
    (meta.chunks_exact(mw).enumerate())
        .map(|(r, w)| {
            let [rank, start, len, owner, total] = [0, 1, 2, 3, 4].map(|i| w[i] as usize);
            let (gen_round, opt_t) = (w[5].into(), w[6].into());
            let head = ShardHeader { rank, start, len, owner: owner != 0, total, gen_round, opt_t };
            if len > pw {
                return Err(CoreError::Data(format!(
                    "shard of rank {rank} claims len {len} > padded width {pw}"
                )));
            }
            Ok(Shard { head, state: [params, m, v].map(|col| &col[r * pw..r * pw + len]) })
        })
        .collect()
}

/// The owner shards of a `save_shard` reply — one per slice — and the
/// rounds they agree on, checked to tile `[0, total)`.
fn owner_shards(reply: &DataProto) -> Result<(Rounds, Vec<Shard<'_>>)> {
    let mut shards = decode_shards(reply)?;
    shards.retain(|s| s.head.owner);
    let of = |s: &Shard| (s.head.total, s.head.gen_round, s.head.opt_t);
    let rounds = shards.first().map(of).ok_or_else(|| {
        CoreError::Data("no rank owns any shard; refusing to write an empty checkpoint".into())
    })?;
    // Every owner must agree on the vector size and RNG/optimizer rounds;
    // a disagreement means the group's ranks are not in lockstep (e.g. a
    // half-torn-down group mid-remap) and the shards would assemble into
    // a silently inconsistent state.
    if let Some(s) = shards.iter().find(|s| of(s) != rounds) {
        return Err(CoreError::Data(format!(
            "shard of rank {} disagrees with the group: \
             (total, gen_round, opt_t) = {:?} vs {rounds:?}",
            s.head.rank,
            of(s)
        )));
    }
    check_coverage(shards.iter().map(|s| (s.head.start, s.head.len)), rounds.0)?;
    Ok((rounds, shards))
}

/// Fills the full vectors from shards `(start, [params, m, v])` that
/// tile `[0, total)`.
fn assemble<'a>(
    (total, gen_round, opt_t): Rounds,
    shards: impl IntoIterator<Item = (usize, [&'a [f32]; 3])>,
) -> AssembledState {
    let mut full = [(); 3].map(|_| vec![0.0; total]);
    for (start, state) in shards {
        for (dst, src) in full.iter_mut().zip(state) {
            dst[start..start + src.len()].copy_from_slice(src);
        }
    }
    let [params, opt_m, opt_v] = full;
    AssembledState { params, opt_m, opt_v, opt_t, gen_round }
}

/// Runs `save_shard` on every rank of `group` and assembles the owner
/// shards in memory: the state a [`CheckpointStore::save_group`] then
/// [`CheckpointStore::load_group`] would read back, without the disk.
pub fn collect_state(group: &WorkerGroup) -> Result<AssembledState> {
    let reply = group.call_sync(SAVE_SHARD_METHOD, &DataProto::empty(), Protocol::AllToAll)?;
    let (rounds, shards) = owner_shards(&reply)?;
    Ok(assemble(rounds, shards.iter().map(|s| (s.head.start, s.state))))
}

/// Everything needed to rebuild a worker's training state: the full
/// flat parameter vector, full Adam moments, the Adam step count, and
/// the generation RNG round.
#[derive(Debug, Clone, PartialEq)]
pub struct AssembledState {
    /// Full flat parameter vector.
    pub params: Vec<f32>,
    /// Full first Adam moment.
    pub opt_m: Vec<f32>,
    /// Full second Adam moment.
    pub opt_v: Vec<f32>,
    /// Adam step count.
    pub opt_t: u64,
    /// Generation RNG round (actor only; 0 otherwise).
    pub gen_round: u64,
}

impl AssembledState {
    /// The `load_checkpoint` input restoring this state.
    pub fn to_load_input(&self) -> DataProto {
        let mut d = DataProto::with_rows(1);
        for (name, v) in STATE_COLUMNS.into_iter().zip([&self.params, &self.opt_m, &self.opt_v]) {
            d.insert_f32(name, v.clone(), v.len());
        }
        d.meta.insert(CHECKSUM_META.into(), format!("{:016x}", param_checksum(&self.params)));
        d.meta.insert(GEN_ROUND_META.into(), self.gen_round.to_string());
        d.meta.insert(OPT_T_META.into(), self.opt_t.to_string());
        d
    }

    /// Reads a `load_checkpoint` input for a model of `total` parameters:
    /// a vector of another size, a missing field or a checksum that does
    /// not match the parameters is an error.
    pub fn from_load_input(data: &DataProto, total: usize) -> Result<AssembledState> {
        let [params, opt_m, opt_v] = STATE_COLUMNS.map(|name| match data.f32(name)? {
            (v, _) if v.len() == total => Ok(v.to_vec()),
            (v, _) => Err(CoreError::Data(format!(
                "checkpoint size mismatch: {name} {} != {total}",
                v.len()
            ))),
        });
        let meta = |key: &str| {
            (data.meta.get(key))
                .ok_or_else(|| CoreError::Data(format!("checkpoint input without {key}")))
        };
        let (params, stored) = (params?, meta(CHECKSUM_META)?);
        let computed = format!("{:016x}", param_checksum(&params));
        if *stored != computed {
            return Err(CoreError::Data(format!(
                "checkpoint checksum mismatch: stored {stored}, computed {computed} \
                 (silent data corruption)"
            )));
        }
        let count = |key: &str| {
            meta(key)?.parse().map_err(|_| CoreError::Data(format!("bad checkpoint {key}")))
        };
        let (opt_t, gen_round) = (count(OPT_T_META)?, count(GEN_ROUND_META)?);
        Ok(AssembledState { params, opt_m: opt_m?, opt_v: opt_v?, opt_t, gen_round })
    }
}

/// What one `save_group` wrote.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSaveReport {
    /// Checkpoint step.
    pub step: u64,
    /// Owner shards written.
    pub shards: usize,
    /// Bytes on disk (shard files only).
    pub bytes: u64,
    /// Total parameters covered.
    pub total_params: usize,
}

struct ShardEntry {
    file: String,
    start: usize,
    len: usize,
    hash: u64,
}

/// A shard file: magic, `start` and `len` as `u64`, then the shard's
/// parameters and both moments as little-endian f32.
fn encode_shard_file(start: usize, state: [&[f32]; 3]) -> Vec<u8> {
    let len = state[0].len();
    let mut payload = Vec::with_capacity(SHARD_MAGIC.len() + 16 + 12 * len);
    payload.extend_from_slice(SHARD_MAGIC);
    payload.extend_from_slice(&(start as u64).to_le_bytes());
    payload.extend_from_slice(&(len as u64).to_le_bytes());
    for x in state.into_iter().flatten() {
        payload.extend_from_slice(&x.to_le_bytes());
    }
    payload
}

/// Reads a shard file back, checked against its manifest entry.
fn decode_shard_file(payload: &[u8], e: &ShardEntry) -> Result<[Vec<f32>; 3]> {
    if fnv1a(payload.iter().copied()) != e.hash {
        return Err(CoreError::Data(format!(
            "shard {} content hash mismatch (corrupt checkpoint)",
            e.file
        )));
    }
    let head = SHARD_MAGIC.len() + 16;
    let word = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap()) as usize;
    if payload.len() != head + 12 * e.len || &payload[..4] != SHARD_MAGIC {
        return Err(CoreError::Data(format!("shard {} malformed", e.file)));
    }
    if word(4) != e.start || word(12) != e.len {
        return Err(CoreError::Data(format!("shard {} header disagrees with manifest", e.file)));
    }
    Ok([0, 1, 2].map(|k| {
        (payload[head + 4 * k * e.len..head + 4 * (k + 1) * e.len].chunks_exact(4))
            .map(|b| f32::from_le_bytes(b.try_into().unwrap()))
            .collect()
    }))
}

/// The value of `key=` among a manifest line's whitespace-separated
/// fields.
fn field<'l>(line: &'l str, key: &str) -> Result<&'l str> {
    (line.split_whitespace().find_map(|kv| kv.strip_prefix(key)?.strip_prefix('=')))
        .ok_or_else(|| CoreError::Data(format!("checkpoint manifest missing {key}")))
}

fn number<T: std::str::FromStr>(line: &str, key: &str) -> Result<T> {
    field(line, key)?.parse().map_err(|_| CoreError::Data(format!("bad manifest {key}")))
}

/// A directory of committed, sharded, content-hashed checkpoints.
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("create dir", e))?;
        Ok(CheckpointStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn step_dir(&self, step: u64) -> PathBuf {
        self.dir.join(format!("step-{step:06}"))
    }

    /// Collects every rank's shard of `group` via [`SAVE_SHARD_METHOD`]
    /// and writes the owner shards plus a hashed manifest under
    /// `step-NNNNNN/`. Not visible to [`CheckpointStore::latest_step`]
    /// until [`CheckpointStore::commit_at`] lands the step's marker.
    pub fn save_group(&self, group: &WorkerGroup, step: u64) -> Result<GroupSaveReport> {
        let reply = group.call_sync(SAVE_SHARD_METHOD, &DataProto::empty(), Protocol::AllToAll)?;
        let ((total, gen_round, opt_t), shards) = owner_shards(&reply)?;
        let step_dir = self.step_dir(step);
        fs::create_dir_all(&step_dir).map_err(|e| io_err("create step dir", e))?;

        let mut entries: Vec<ShardEntry> = Vec::with_capacity(shards.len());
        let mut bytes = 0u64;
        for Shard { head, state } in shards {
            let payload = encode_shard_file(head.start, state);
            let hash = fnv1a(payload.iter().copied());
            let file = format!("{}-rank-{:03}.bin", group.name(), head.rank);
            write_atomic(&step_dir.join(&file), &payload)?;
            bytes += payload.len() as u64;
            entries.push(ShardEntry { file, start: head.start, len: head.len, hash });
        }
        let mut manifest = format!(
            "step={step} total={total} gen_round={gen_round} opt_t={opt_t} shards={}\n",
            entries.len()
        );
        for e in &entries {
            manifest.push_str(&format!(
                "shard file={} start={} len={} hash={:016x}\n",
                e.file, e.start, e.len, e.hash
            ));
        }
        write_atomic(&step_dir.join(format!("{}.manifest", group.name())), manifest.as_bytes())?;
        // A re-save of the same step from a *smaller* layout (elastic
        // re-mapping's rebuild-from-seeds path) writes fewer owner
        // shards than a predecessor; drop this group's now-unreferenced
        // files so the directory never resurrects or leaks stale
        // bigger-world shards. The manifest rewrite above is atomic, so
        // referenced files are never removed.
        if let Ok(dirents) = fs::read_dir(&step_dir) {
            let prefix = format!("{}-rank-", group.name());
            for de in dirents.flatten() {
                let name = de.file_name().to_string_lossy().into_owned();
                if name.starts_with(&prefix)
                    && name.ends_with(".bin")
                    && !entries.iter().any(|e| e.file == name)
                {
                    let _ = fs::remove_file(de.path());
                }
            }
        }
        Ok(GroupSaveReport { step, shards: entries.len(), bytes, total_params: total })
    }

    /// Commits `step`: writes the `COMMIT` marker naming the groups the
    /// step covers, stamped with the virtual-clock instant the commit
    /// landed (exact f64 bits). Only committed steps are visible to
    /// [`CheckpointStore::latest_step`] and readable by
    /// [`CheckpointStore::load_group`]. Lost-work accounting reads the
    /// stamp back via [`CheckpointStore::commit_time`] instead of
    /// guessing from clock samples taken around the save, so a fault
    /// *during* the next checkpoint's tmp+rename window is attributed to
    /// the checkpoint, not to discarded training work.
    pub fn commit_at(&self, step: u64, groups: &[&str], now_s: f64) -> Result<()> {
        let content = format!(
            "step={step}\ngroups={}\ntime_bits={:016x}\n",
            groups.join(","),
            now_s.to_bits()
        );
        write_atomic(&self.step_dir(step).join("COMMIT"), content.as_bytes())
    }

    /// The value of `key=` in `step`'s `COMMIT` marker, if it landed.
    fn commit_field(&self, step: u64, key: &str) -> Option<String> {
        let marker = fs::read_to_string(self.step_dir(step).join("COMMIT")).ok()?;
        marker.lines().find_map(|l| Some(l.strip_prefix(key)?.strip_prefix('=')?.to_string()))
    }

    /// The virtual-clock instant `step`'s COMMIT marker landed, if the
    /// step is committed.
    pub fn commit_time(&self, step: u64) -> Option<f64> {
        let bits = self.commit_field(step, "time_bits")?;
        u64::from_str_radix(bits.trim(), 16).ok().map(f64::from_bits)
    }

    /// The newest committed step, if any.
    pub fn latest_step(&self) -> Option<u64> {
        let entries = fs::read_dir(&self.dir).ok()?;
        let mut best = None;
        for e in entries.flatten() {
            let name = e.file_name();
            let Some(step) = name.to_str().and_then(|n| n.strip_prefix("step-")) else {
                continue;
            };
            let Ok(step) = step.parse::<u64>() else { continue };
            if e.path().join("COMMIT").is_file() {
                best = best.max(Some(step));
            }
        }
        best
    }

    /// Reads, hash-verifies, and reassembles `group_name`'s state at
    /// `step`. A step whose `COMMIT` marker has not landed, or does not
    /// name the group, is refused: its shards may be a save that never
    /// finished.
    pub fn load_group(&self, step: u64, group_name: &str) -> Result<AssembledState> {
        match self.commit_field(step, "groups") {
            None => {
                return Err(CoreError::Data(format!("checkpoint step {step} is not committed")))
            }
            Some(groups) if !groups.split(',').any(|g| g == group_name) => {
                return Err(CoreError::Data(format!(
                    "checkpoint step {step} was committed without group {group_name}"
                )))
            }
            Some(_) => {}
        }
        let step_dir = self.step_dir(step);
        let manifest = fs::read_to_string(step_dir.join(format!("{group_name}.manifest")))
            .map_err(|e| io_err("read manifest", e))?;
        let mut lines = manifest.lines().filter(|l| !l.trim().is_empty());
        let header =
            lines.next().ok_or_else(|| CoreError::Data("empty checkpoint manifest".into()))?;
        let rounds =
            (number(header, "total")?, number(header, "gen_round")?, number(header, "opt_t")?);
        let entries = lines
            .map(|line| {
                Ok(ShardEntry {
                    file: field(line, "file")?.to_string(),
                    start: number(line, "start")?,
                    len: number(line, "len")?,
                    hash: u64::from_str_radix(field(line, "hash")?, 16)
                        .map_err(|_| CoreError::Data("bad manifest hash".into()))?,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        check_coverage(entries.iter().map(|e| (e.start, e.len)), rounds.0)?;
        let shards = (entries.iter())
            .map(|e| {
                let payload =
                    fs::read(step_dir.join(&e.file)).map_err(|er| io_err("read shard", er))?;
                Ok((e.start, decode_shard_file(&payload, e)?))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(assemble(
            rounds,
            shards.iter().map(|(start, s)| (*start, s.each_ref().map(Vec::as_slice))),
        ))
    }

    /// Restores `group` from the committed shards at `step`: reassembles
    /// the full state and broadcasts it through the workers'
    /// `load_checkpoint` (ONE_TO_ALL). A step
    /// [`CheckpointStore::load_group`] refuses sends nothing.
    pub fn restore_group(&self, group: &WorkerGroup, step: u64) -> Result<AssembledState> {
        let st = self.load_group(step, group.name())?;
        group.call_sync("load_checkpoint", &st.to_load_input(), Protocol::OneToAll)?;
        Ok(st)
    }
}

/// Verifies the shard ranges `(start, len)` tile `[0, total)` exactly —
/// no gaps, no overlaps. Zero-length shards (padding tails) are allowed.
fn check_coverage(shards: impl IntoIterator<Item = (usize, usize)>, total: usize) -> Result<()> {
    let mut ranges: Vec<(usize, usize)> = shards.into_iter().filter(|&(_, len)| len > 0).collect();
    ranges.sort_unstable();
    let mut cursor = 0usize;
    for (start, len) in ranges {
        if start != cursor {
            return Err(CoreError::Data(format!(
                "checkpoint shards do not tile: expected offset {cursor}, got {start}"
            )));
        }
        cursor = start + len;
    }
    if cursor != total {
        return Err(CoreError::Data(format!(
            "checkpoint shards cover {cursor} of {total} parameters"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    use hf_core::{Controller, RankCtx, Worker, WorkerLayout};
    use hf_parallel::ParallelSpec;
    use hf_simcluster::{ClusterSpec, ResourcePool};

    fn tmp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::SeqCst);
        let d =
            std::env::temp_dir().join(format!("hf-resilience-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    /// A minimal stateful worker speaking the sharded-checkpoint
    /// contract: full replicated params/moments per rank, ZeRO-style
    /// ownership split (every rank owns its padded slice).
    struct ToyWorker {
        params: Vec<f32>,
        m: Vec<f32>,
        v: Vec<f32>,
        gen_round: u64,
        opt_t: u64,
    }

    impl ToyWorker {
        fn new(n: usize) -> Self {
            ToyWorker {
                params: (0..n).map(|i| i as f32 + 0.5).collect(),
                m: (0..n).map(|i| i as f32 * 0.1).collect(),
                v: (0..n).map(|i| i as f32 * 0.01).collect(),
                gen_round: 7,
                opt_t: 3,
            }
        }
    }

    impl Worker for ToyWorker {
        fn execute(
            &mut self,
            method: &str,
            data: DataProto,
            ctx: &mut RankCtx,
        ) -> hf_core::Result<DataProto> {
            match method {
                "save_shard" => {
                    let total = self.params.len();
                    let (range, padded) = shard_range(total, ctx.rank, ctx.comms.world.size());
                    let head = ShardHeader {
                        rank: ctx.rank,
                        start: range.start,
                        len: range.len(),
                        owner: true,
                        total,
                        gen_round: self.gen_round,
                        opt_t: self.opt_t,
                    };
                    encode_shard(
                        head,
                        padded,
                        [&self.params, &self.m, &self.v].map(|x| &x[range.clone()]),
                    )
                }
                "load_checkpoint" => {
                    let st = AssembledState::from_load_input(&data, self.params.len())?;
                    (self.params, self.m, self.v) = (st.params, st.opt_m, st.opt_v);
                    (self.gen_round, self.opt_t) = (st.gen_round, st.opt_t);
                    Ok(DataProto::empty())
                }
                "scramble" => {
                    for x in &mut self.params {
                        *x = -*x;
                    }
                    self.gen_round = 999;
                    Ok(DataProto::empty())
                }
                "dump" => {
                    let mut out = DataProto::with_rows(1);
                    out.insert_f32("params", self.params.clone(), self.params.len());
                    out.insert_f32("m", self.m.clone(), self.m.len());
                    out.meta.insert("gen_round".into(), self.gen_round.to_string());
                    Ok(out)
                }
                other => Err(CoreError::Worker(format!("no method {other}"))),
            }
        }
    }

    fn setup_world(n_params: usize, world: usize) -> (Controller, hf_core::WorkerGroup) {
        let ctrl = Controller::new(ClusterSpec::a100_with_gpus(world));
        let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, world));
        let g = ctrl
            .spawn_group("toy", &ResourcePool::contiguous(0, world), layout, |_r| {
                Box::new(ToyWorker::new(n_params)) as Box<dyn Worker>
            })
            .unwrap();
        (ctrl, g)
    }

    fn setup(n_params: usize) -> (Controller, hf_core::WorkerGroup) {
        setup_world(n_params, 2)
    }

    /// Every rank's parameters, from the `dump` method.
    fn dumped_params(g: &hf_core::WorkerGroup) -> Vec<Vec<f32>> {
        let dump = g.call_sync("dump", &DataProto::empty(), Protocol::AllToAll).unwrap();
        let (p, w) = dump.f32("params").unwrap();
        p.chunks(w).map(<[f32]>::to_vec).collect()
    }

    #[test]
    fn save_commit_restore_round_trip() {
        let dir = tmp_dir("roundtrip");
        let store = CheckpointStore::new(&dir).unwrap();
        // 103 params across 2 ranks exercises the padded tail.
        let (_ctrl, g) = setup(103);
        let report = store.save_group(&g, 4).unwrap();
        assert_eq!(report.shards, 2);
        assert_eq!(report.total_params, 103);
        // Uncommitted steps are invisible.
        assert_eq!(store.latest_step(), None);
        store.commit_at(4, &["toy"], 0.0).unwrap();
        assert_eq!(store.latest_step(), Some(4));

        // Corrupt the live state, then restore.
        g.call_sync("scramble", &DataProto::empty(), Protocol::OneToAll).unwrap();
        let st = store.restore_group(&g, 4).unwrap();
        assert_eq!(st.params.len(), 103);
        assert_eq!(st.gen_round, 7);
        assert_eq!(st.opt_t, 3);
        let expect = ToyWorker::new(103);
        for (r, p) in dumped_params(&g).iter().enumerate() {
            assert_eq!(p, &expect.params, "rank {r} params restored");
        }
        let dump = g.call_sync("dump", &DataProto::empty(), Protocol::AllToAll).unwrap();
        assert_eq!(dump.meta.get("gen_round").map(String::as_str), Some("7"));
        assert_eq!(collect_state(&g).unwrap(), st, "the in-memory assembly reads the same state");
    }

    #[test]
    fn an_uncommitted_step_is_refused_before_anything_is_sent() {
        // The actor half of an interrupted system save: shards and a
        // manifest on disk, no COMMIT marker.
        let dir = tmp_dir("uncommitted");
        let store = CheckpointStore::new(&dir).unwrap();
        let (_ctrl, g) = setup(16);
        store.save_group(&g, 1).unwrap();
        g.call_sync("scramble", &DataProto::empty(), Protocol::OneToAll).unwrap();
        let scrambled = dumped_params(&g);
        for err in
            [store.load_group(1, "toy").unwrap_err(), store.restore_group(&g, 1).unwrap_err()]
        {
            assert!(matches!(&err, CoreError::Data(m) if m.contains("not committed")), "{err:?}");
        }
        assert_eq!(dumped_params(&g), scrambled, "no load_checkpoint reached the group");
        // A commit that does not name the group does not cover it.
        store.commit_at(1, &["other"], 0.0).unwrap();
        let err = store.restore_group(&g, 1).unwrap_err();
        assert!(matches!(&err, CoreError::Data(m) if m.contains("without group toy")), "{err:?}");
        store.commit_at(1, &["other", "toy"], 0.0).unwrap();
        store.restore_group(&g, 1).unwrap();
        assert_eq!(dumped_params(&g)[0], ToyWorker::new(16).params);
    }

    #[test]
    fn on_disk_format_is_unchanged() {
        // Shard files, manifest and COMMIT marker of a 5-parameter toy
        // group on 2 ranks, byte for byte as recorded before the codecs
        // moved here.
        let dir = tmp_dir("format");
        let store = CheckpointStore::new(&dir).unwrap();
        let (_ctrl, g) = setup(5);
        store.save_group(&g, 3).unwrap();
        store.commit_at(3, &["toy"], 1.5).unwrap();
        let step = store.step_dir(3);
        let text = |name: &str| fs::read_to_string(step.join(name)).unwrap();
        let hex = |name: &str| {
            fs::read(step.join(name))
                .unwrap()
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect::<String>()
        };
        assert_eq!(
            text("toy.manifest"),
            "step=3 total=5 gen_round=7 opt_t=3 shards=2\n\
             shard file=toy-rank-000.bin start=0 len=3 hash=3ed884d70b8063cd\n\
             shard file=toy-rank-001.bin start=3 len=2 hash=7498022c787a6128\n"
        );
        assert_eq!(text("COMMIT"), "step=3\ngroups=toy\ntime_bits=3ff8000000000000\n");
        assert_eq!(
            hex("toy-rank-000.bin"),
            "48465331000000000000000003000000000000000000003f0000c03f0000204000000000\
             cdcccc3dcdcc4c3e000000000ad7233c0ad7a33c"
        );
        assert_eq!(
            hex("toy-rank-001.bin"),
            "484653310300000000000000020000000000000000006040000090409a99993ecdcccc3e\
             8fc2f53c0ad7233d"
        );
    }

    #[test]
    fn shard_header_integers_are_exact() {
        // Past 2^24 an f32 header would round: 2^24 + 1 reads back 2^24.
        let big = (1usize << 24) + 1;
        assert_ne!(big as f32 as usize, big);
        let head = ShardHeader {
            rank: 3,
            start: big,
            len: 1,
            owner: true,
            total: big,
            gen_round: big as u64,
            opt_t: u64::from(u32::MAX),
        };
        let reply = encode_shard(head, 2, [&[1.0], &[2.0], &[3.0]]).unwrap();
        let shards = decode_shards(&reply).unwrap();
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].head, head);
        assert_eq!(shards[0].state, [&[1.0f32][..], &[2.0], &[3.0]]);
        let too_big = ShardHeader { opt_t: u64::from(u32::MAX) + 1, ..head };
        assert!(encode_shard(too_big, 2, [&[1.0], &[2.0], &[3.0]]).is_err());
    }

    #[test]
    fn load_input_round_trips_and_guards_the_parameters() {
        let st = AssembledState {
            params: vec![0.5, -1.0, 2.0],
            opt_m: vec![0.1, 0.2, 0.3],
            opt_v: vec![0.01, 0.02, 0.03],
            opt_t: 9,
            gen_round: 4,
        };
        let input = st.to_load_input();
        assert_eq!(AssembledState::from_load_input(&input, 3).unwrap(), st);
        let err = AssembledState::from_load_input(&input, 4).unwrap_err();
        assert!(matches!(&err, CoreError::Data(m) if m.contains("size mismatch")), "{err:?}");
        let mut corrupted = input.clone();
        corrupted.insert_f32("params", vec![0.5, -1.0, 2.5], 3);
        let err = AssembledState::from_load_input(&corrupted, 3).unwrap_err();
        assert!(matches!(&err, CoreError::Data(m) if m.contains("checksum mismatch")), "{err:?}");
        let mut unstamped = input;
        unstamped.meta.remove(OPT_T_META);
        assert!(AssembledState::from_load_input(&unstamped, 3).is_err());
    }

    #[test]
    fn corrupted_shard_is_detected_by_content_hash() {
        let dir = tmp_dir("corrupt");
        let store = CheckpointStore::new(&dir).unwrap();
        let (_ctrl, g) = setup(64);
        store.save_group(&g, 1).unwrap();
        store.commit_at(1, &["toy"], 0.0).unwrap();
        // Flip one payload byte in one shard file.
        let shard = store.step_dir(1).join("toy-rank-001.bin");
        let mut bytes = fs::read(&shard).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&shard, &bytes).unwrap();
        let err = store.load_group(1, "toy");
        assert!(matches!(&err, Err(CoreError::Data(m)) if m.contains("hash mismatch")), "{err:?}");
    }

    #[test]
    fn latest_step_picks_newest_committed() {
        let dir = tmp_dir("latest");
        let store = CheckpointStore::new(&dir).unwrap();
        let (_ctrl, g) = setup(16);
        for step in [2, 5, 9] {
            store.save_group(&g, step).unwrap();
        }
        store.commit_at(2, &["toy"], 0.0).unwrap();
        store.commit_at(5, &["toy"], 0.0).unwrap();
        // Step 9 is saved but never committed: a simulated crash
        // mid-checkpoint must roll back to 5, not 9.
        assert_eq!(store.latest_step(), Some(5));
    }

    #[test]
    fn restore_into_strictly_smaller_world() {
        // Elastic re-mapping restores a checkpoint saved under a larger
        // layout into a group with *fewer* ranks (8→7-style shrink).
        // The saved shards tile the vector by the *saving* world, so
        // coverage verification must pass regardless of the restoring
        // world, including when the saved world does not divide the
        // parameter count and the tail shard is zero-length.
        for n_params in [103usize, 3] {
            let dir = tmp_dir("shrink");
            let store = CheckpointStore::new(&dir).unwrap();
            let (_c4, big) = setup_world(n_params, 4);
            let report = store.save_group(&big, 2).unwrap();
            assert_eq!(report.shards, 4, "every rank owns a slice at world 4");
            store.commit_at(2, &["toy"], 0.0).unwrap();

            let (_c2, small) = setup_world(n_params, 2);
            small.call_sync("scramble", &DataProto::empty(), Protocol::OneToAll).unwrap();
            let st = store
                .restore_group(&small, 2)
                .expect("restore into a smaller world must pass coverage");
            assert_eq!(st.params.len(), n_params);
            let expect = ToyWorker::new(n_params);
            for (r, p) in dumped_params(&small).iter().enumerate() {
                assert_eq!(p, &expect.params, "rank {r} restored");
            }
        }
    }

    #[test]
    fn smaller_world_resave_of_same_step_cleans_stale_shards() {
        // Elastic re-mapping's rebuild-from-seeds path re-saves step 0
        // from the remapped (smaller) group into the same directory the
        // interrupted bigger-world save used. The rewritten manifest is
        // authoritative, but the bigger world's extra shard files must
        // not linger (nor ever be resurrected by a later load).
        let dir = tmp_dir("resave");
        let store = CheckpointStore::new(&dir).unwrap();
        let (_c4, big) = setup_world(103, 4);
        store.save_group(&big, 0).unwrap();
        assert!(store.step_dir(0).join("toy-rank-003.bin").is_file());

        let (_c2, small) = setup_world(103, 2);
        let report = store.save_group(&small, 0).unwrap();
        assert_eq!(report.shards, 2);
        store.commit_at(0, &["toy"], 0.0).unwrap();
        assert!(!store.step_dir(0).join("toy-rank-002.bin").is_file(), "stale shard removed");
        assert!(!store.step_dir(0).join("toy-rank-003.bin").is_file(), "stale shard removed");
        let st = store.load_group(0, "toy").unwrap();
        assert_eq!(st.params, ToyWorker::new(103).params);
    }

    #[test]
    fn disagreeing_owner_shards_are_rejected() {
        // A group whose owners disagree on the vector size (a half-torn-
        // down group mid-remap) must fail the save loudly instead of
        // assembling an inconsistent checkpoint.
        struct SkewWorker(ToyWorker);
        impl Worker for SkewWorker {
            fn execute(
                &mut self,
                method: &str,
                data: DataProto,
                ctx: &mut RankCtx,
            ) -> hf_core::Result<DataProto> {
                let out = self.0.execute(method, data, ctx)?;
                if method != "save_shard" || ctx.rank != 1 {
                    return Ok(out);
                }
                // Rank 1 claims a different total.
                let shard = decode_shards(&out)?[0];
                let head = ShardHeader { total: shard.head.total + 1, ..shard.head };
                encode_shard(head, shard.head.len, shard.state)
            }
        }
        let ctrl = Controller::new(ClusterSpec::a100_with_gpus(2));
        let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 2));
        let g = ctrl
            .spawn_group("toy", &ResourcePool::contiguous(0, 2), layout, |_r| {
                Box::new(SkewWorker(ToyWorker::new(16))) as Box<dyn Worker>
            })
            .unwrap();
        let dir = tmp_dir("skew");
        let store = CheckpointStore::new(&dir).unwrap();
        let err = store.save_group(&g, 1);
        assert!(
            matches!(&err, Err(CoreError::Data(m)) if m.contains("disagrees with the group")),
            "{err:?}"
        );
        assert!(!store.step_dir(1).exists(), "a rejected save writes nothing");
    }

    #[test]
    fn coverage_check_rejects_gaps() {
        assert!(check_coverage([(0, 4), (6, 4)], 10).is_err());
        assert!(check_coverage([(0, 4)], 10).is_err());
        assert!(check_coverage([(4, 6), (0, 4), (10, 0)], 10).is_ok());
    }
}
