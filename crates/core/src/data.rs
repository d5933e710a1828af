//! `DataProto`: the batch data currency of the RLHF dataflow.
//!
//! The paper stores intermediate data (prompts, responses, log-probs,
//! values, rewards, advantages) in TensorDict; `DataProto` plays that
//! role here: a set of named, equally-sized-per-row columns plus string
//! metadata. Transfer protocols `chunk` it across data-parallel groups
//! and `concat` worker outputs back together.
//!
//! Columns are **copy-on-write views** over `Arc`-shared buffers:
//! `clone`, `select`, and `chunk` are refcount bumps plus offset
//! arithmetic, never payload copies, and `concat` of adjacent views
//! over one buffer (the `chunk ∘ concat` round-trip every dispatch
//! protocol performs) reuses the buffer outright. Buffers are immutable
//! once inserted — "mutation" replaces a whole column — so views
//! handed to different workers can never alias writes. The bytes that
//! *do* get physically copied (non-adjacent concat, mixed-buffer
//! gathers) are tallied in a thread-local counter readable via
//! [`physical_copy_bytes`], letting the runtime report logical vs
//! physically-copied traffic separately.
//!
//! The rest of a view is shared too: column names are `Arc<str>` and the
//! metadata map is one copy-on-write [`Meta`], so a `clone` or `select`
//! allocates only its column table, whatever the names and metadata
//! hold. A chunk's global starting row ([`DataProto::row_offset`]) and
//! the device a reply was collected from ([`DataProto::src_device`]) are
//! plain fields, not metadata entries, so stamping one batch never
//! copies the map its siblings share. A `clone` or `select` makes one
//! allocation and a `ThreeD` split of a 9-column batch over 8 ranks 18,
//! against 22 and 386 when every view copied every name and metadata
//! entry (`tests/alloc_budget.rs` holds the budgets). The row offset is
//! stamped by the row-splitting protocols (continuing from the batch's
//! own stamp, so a pipelined slice keeps its rows' global identity) and
//! by `PipelinedPpo::split_prompts`, read by the sampler and verifier
//! seeds, and cleared by `Protocol::collect` and the pipelined batch
//! assembly.
//!
//! The runtime records `protocol.<P>.dispatch_copy_bytes` /
//! `collect_copy_bytes` beside the logical `dispatch_bytes` /
//! `collect_bytes`, and the telemetry summary prints the run's
//! zero-copy share.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::error::{CoreError, Result};

thread_local! {
    static COPIED_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Total payload bytes physically copied by column materializations on
/// the calling thread (monotone; sample before/after an operation and
/// subtract to charge it). Zero-copy view operations never move it.
pub fn physical_copy_bytes() -> u64 {
    COPIED_BYTES.with(|c| c.get())
}

fn note_copy(bytes: usize) {
    COPIED_BYTES.with(|c| c.set(c.get() + bytes as u64));
}

/// The shared, immutable backing buffer of a column.
#[derive(Clone)]
enum Payload {
    F32(Arc<[f32]>),
    Tokens(Arc<[u32]>),
}

impl Payload {
    fn same_buffer(&self, other: &Payload) -> bool {
        match (self, other) {
            (Payload::F32(a), Payload::F32(b)) => Arc::ptr_eq(a, b),
            (Payload::Tokens(a), Payload::Tokens(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// A named column: a `rows × width` row-major view into a shared
/// buffer. Cloning or slicing a column shares the buffer; buffers are
/// never written through a view.
#[derive(Clone)]
pub struct Column {
    payload: Payload,
    /// Values per row.
    width: usize,
    /// First visible row within the backing buffer.
    start: usize,
    /// Visible rows.
    rows: usize,
}

impl Column {
    /// A floating-point column (log-probs, values, rewards, ...) owning
    /// `data` as its backing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `width` (for
    /// `width > 0`).
    pub(crate) fn f32(data: Vec<f32>, width: usize) -> Column {
        let rows = data.len().checked_div(width).unwrap_or(0);
        assert!(width == 0 || data.len() == rows * width, "ragged f32 column");
        Column { payload: Payload::F32(data.into()), width, start: 0, rows }
    }

    /// A token-id column (prompts, responses) owning `data` as its
    /// backing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `width` (for
    /// `width > 0`).
    pub(crate) fn tokens(data: Vec<u32>, width: usize) -> Column {
        let rows = data.len().checked_div(width).unwrap_or(0);
        assert!(width == 0 || data.len() == rows * width, "ragged tokens column");
        Column { payload: Payload::Tokens(data.into()), width, start: 0, rows }
    }

    /// Visible payload bytes (4 bytes per element for both types).
    fn bytes(&self) -> usize {
        self.rows * self.width * 4
    }

    fn as_f32(&self) -> Option<&[f32]> {
        match &self.payload {
            Payload::F32(data) => {
                Some(&data[self.start * self.width..(self.start + self.rows) * self.width])
            }
            Payload::Tokens(_) => None,
        }
    }

    fn as_tokens(&self) -> Option<&[u32]> {
        match &self.payload {
            Payload::Tokens(data) => {
                Some(&data[self.start * self.width..(self.start + self.rows) * self.width])
            }
            Payload::F32(_) => None,
        }
    }

    /// Rows `[start, end)` as a view sharing this column's buffer.
    fn slice_rows(&self, start: usize, end: usize) -> Column {
        debug_assert!(start <= end && end <= self.rows);
        Column {
            payload: self.payload.clone(),
            width: self.width,
            start: self.start + start,
            rows: end - start,
        }
    }

    /// Whether `next` is the view immediately following `self` in the
    /// same backing buffer (so the pair concatenates zero-copy).
    fn is_adjacent(&self, next: &Column) -> bool {
        self.width == next.width
            && self.payload.same_buffer(&next.payload)
            && self.start + self.rows == next.start
    }

    /// Concatenates column parts row-wise. When every part is a
    /// contiguous run of views over one shared buffer — the shape every
    /// `chunk ∘ concat` round-trip produces — the result is a view over
    /// that buffer and no payload moves; otherwise the parts are
    /// materialized into a fresh buffer and the copied bytes are
    /// tallied.
    fn concat_parts(parts: &[&Column]) -> Result<Column> {
        let (first, rest) = parts.split_first().expect("concat_parts needs at least one part");
        for p in rest {
            let ok = p.width == first.width
                && matches!(
                    (&first.payload, &p.payload),
                    (Payload::F32(_), Payload::F32(_)) | (Payload::Tokens(_), Payload::Tokens(_))
                );
            if !ok {
                return Err(CoreError::Data("column type/width mismatch in concat".into()));
            }
        }
        if parts.windows(2).all(|w| w[0].is_adjacent(w[1])) {
            let rows = parts.iter().map(|p| p.rows).sum();
            return Ok(Column {
                payload: first.payload.clone(),
                width: first.width,
                start: first.start,
                rows,
            });
        }
        let total_rows: usize = parts.iter().map(|p| p.rows).sum();
        let out = match &first.payload {
            Payload::F32(_) => {
                let mut data = Vec::with_capacity(total_rows * first.width);
                for p in parts {
                    data.extend_from_slice(p.as_f32().expect("type checked above"));
                }
                Column::f32(data, first.width)
            }
            Payload::Tokens(_) => {
                let mut data = Vec::with_capacity(total_rows * first.width);
                for p in parts {
                    data.extend_from_slice(p.as_tokens().expect("type checked above"));
                }
                Column::tokens(data, first.width)
            }
        };
        note_copy(out.bytes());
        Ok(out)
    }
}

/// Runtime CoW auditor (audit builds): structural and no-aliasing checks
/// over a batch's column views. Columns are copy-on-write views into
/// `Arc`-shared buffers that must never be written through a view; the
/// auditor fingerprints the *visible* payload so the runtime can prove a
/// worker did not mutate a shared input buffer in place, and verifies
/// every view stays in bounds with a uniform row count.
#[cfg(feature = "audit")]
impl DataProto {
    /// FNV-1a over column names, shapes, and visible payload bits.
    /// Stable across clones/views that expose the same logical data.
    pub fn audit_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |byte: u8| {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for (name, col) in &self.columns {
            for b in name.as_bytes() {
                eat(*b);
            }
            for b in (col.width as u64).to_le_bytes() {
                eat(b);
            }
            match &col.payload {
                Payload::F32(_) => {
                    for v in col.as_f32().expect("typed view") {
                        for b in v.to_bits().to_le_bytes() {
                            eat(b);
                        }
                    }
                }
                Payload::Tokens(_) => {
                    for v in col.as_tokens().expect("typed view") {
                        for b in v.to_le_bytes() {
                            eat(b);
                        }
                    }
                }
            }
        }
        h
    }

    /// Verifies view structure: every column has this batch's row count
    /// and its visible window lies inside the backing buffer.
    pub fn audit_verify(&self) -> std::result::Result<(), String> {
        for (name, col) in &self.columns {
            if col.rows != self.rows {
                return Err(format!(
                    "column '{name}' has {} rows but the batch has {}",
                    col.rows, self.rows
                ));
            }
            let backing = match &col.payload {
                Payload::F32(a) => a.len(),
                Payload::Tokens(a) => a.len(),
            };
            if (col.start + col.rows) * col.width > backing {
                return Err(format!(
                    "column '{name}' view [{}, {}) x {} exceeds its backing buffer of {} elements",
                    col.start,
                    col.start + col.rows,
                    col.width,
                    backing
                ));
            }
        }
        Ok(())
    }
}

impl PartialEq for Column {
    /// Logical equality: type, width, and visible values — independent
    /// of how the views are backed (an owned buffer and a view over a
    /// larger shared buffer compare equal when the data agrees).
    fn eq(&self, other: &Column) -> bool {
        if self.width != other.width || self.rows != other.rows {
            return false;
        }
        match (&self.payload, &other.payload) {
            (Payload::F32(_), Payload::F32(_)) => self.as_f32() == other.as_f32(),
            (Payload::Tokens(_), Payload::Tokens(_)) => self.as_tokens() == other.as_tokens(),
            _ => false,
        }
    }
}

impl fmt::Debug for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("Column");
        d.field("width", &self.width).field("rows", &self.rows);
        match &self.payload {
            Payload::F32(_) => d.field("f32", &self.as_f32().unwrap()),
            Payload::Tokens(_) => d.field("tokens", &self.as_tokens().unwrap()),
        };
        d.finish()
    }
}

/// The metadata of a batch: a string map shared copy-on-write by every
/// batch cloned, selected, chunked or concatenated from one another.
///
/// Reads go through `Deref` to the map (`get`, `contains_key`,
/// `meta[key]`); [`Meta::insert`] and [`Meta::remove`] copy the map only
/// when another batch shares it. There is deliberately no `DerefMut`, so
/// a read through `&mut` never copies.
#[derive(Clone, Default)]
pub struct Meta(
    /// `None` is the empty map, so a batch without metadata allocates none.
    Option<Arc<BTreeMap<String, String>>>,
);

static EMPTY_META: BTreeMap<String, String> = BTreeMap::new();

impl Meta {
    /// Sets `key` to `value`, returning the previous value.
    pub fn insert(&mut self, key: String, value: String) -> Option<String> {
        Arc::make_mut(self.0.get_or_insert_with(Default::default)).insert(key, value)
    }

    /// Removes `key`, returning its value. A missing key copies nothing.
    pub fn remove(&mut self, key: &str) -> Option<String> {
        let map = self.0.as_mut().filter(|m| m.contains_key(key))?;
        Arc::make_mut(map).remove(key)
    }

    /// Inserts every entry of `other`, overwriting equal keys.
    fn merge(&mut self, other: Meta) {
        let Some(theirs) = other.0 else { return };
        match &mut self.0 {
            None => self.0 = Some(theirs),
            Some(mine) if Arc::ptr_eq(mine, &theirs) => {}
            Some(mine) => Arc::make_mut(mine).extend(Arc::unwrap_or_clone(theirs)),
        }
    }
}

impl Deref for Meta {
    type Target = BTreeMap<String, String>;
    fn deref(&self) -> &Self::Target {
        self.0.as_deref().unwrap_or(&EMPTY_META)
    }
}

impl PartialEq for Meta {
    fn eq(&self, other: &Meta) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Meta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// A batch of named columns with uniform row count.
///
/// # Examples
///
/// ```
/// use hf_core::DataProto;
///
/// let mut batch = DataProto::with_rows(4);
/// batch.insert_tokens("prompts", vec![1, 2, 3, 4, 5, 6, 7, 8], 2);
/// batch.insert_f32("scores", vec![0.1, 0.9, 0.4, 0.7], 1);
///
/// // Transfer protocols split batches across data-parallel groups...
/// let chunks = batch.chunk(2);
/// assert_eq!(chunks[0].rows(), 2);
/// // ...and gather worker outputs back together, losslessly.
/// assert_eq!(DataProto::concat(&chunks).unwrap(), batch);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataProto {
    rows: usize,
    columns: BTreeMap<Arc<str>, Column>,
    /// Global index of this batch's first row, when it is a chunk of a
    /// larger logical batch (see [`DataProto::row_offset`]).
    row_offset: Option<usize>,
    /// See [`DataProto::src_device`].
    src_device: Option<usize>,
    /// Free-form metadata (algorithm flags, ...).
    pub meta: Meta,
}

impl DataProto {
    /// An empty batch with `rows` rows and no columns.
    pub fn with_rows(rows: usize) -> Self {
        DataProto { rows, ..Default::default() }
    }

    /// An empty batch (0 rows, no columns).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column names in deterministic (sorted) order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.keys().map(|s| &**s).collect()
    }

    /// The global index of this batch's first row, if it is stamped as
    /// a chunk of a larger logical batch. Row-splitting protocols stamp
    /// it during [`crate::Protocol::distribute`] so a worker can derive
    /// *global-row-indexed* state (e.g. per-request sampler seeds) that
    /// does not depend on how the batch happened to be chunked.
    ///
    /// It follows the batch like metadata did: `clone`, `select` and
    /// `concat` (from the first part) copy it, `union` takes the other
    /// batch's stamp when that batch has one, and equality compares it.
    pub fn row_offset(&self) -> Option<usize> {
        self.row_offset
    }

    /// Stamps (or, with `None`, clears) the global starting row.
    pub fn set_row_offset(&mut self, row0: Option<usize>) -> &mut Self {
        self.row_offset = row0;
        self
    }

    /// The device a worker group's reply was collected from, which the
    /// next call on it pulls it from; it follows the batch by
    /// [`DataProto::row_offset`]'s rules.
    pub fn src_device(&self) -> Option<usize> {
        self.src_device
    }

    pub(crate) fn set_src_device(&mut self, device: Option<usize>) {
        self.src_device = device;
    }

    /// Whether the batch holds a column named `name`.
    pub fn has(&self, name: &str) -> bool {
        self.columns.contains_key(name)
    }

    /// Total payload bytes (used to charge communication costs).
    pub fn bytes(&self) -> usize {
        self.columns.values().map(|c| c.bytes()).sum()
    }

    /// Inserts an `f32` column.
    ///
    /// # Panics
    ///
    /// Panics if the data length is not `rows × width`.
    pub fn insert_f32(&mut self, name: &str, data: Vec<f32>, width: usize) -> &mut Self {
        assert_eq!(data.len(), self.rows * width, "column {name} shape mismatch");
        self.columns.insert(name.into(), Column::f32(data, width));
        self
    }

    /// Inserts a token column.
    ///
    /// # Panics
    ///
    /// Panics if the data length is not `rows × width`.
    pub fn insert_tokens(&mut self, name: &str, data: Vec<u32>, width: usize) -> &mut Self {
        assert_eq!(data.len(), self.rows * width, "column {name} shape mismatch");
        self.columns.insert(name.into(), Column::tokens(data, width));
        self
    }

    /// Borrows an `f32` column.
    pub fn f32(&self, name: &str) -> Result<(&[f32], usize)> {
        match self.columns.get(name) {
            Some(c) => match c.as_f32() {
                Some(data) => Ok((data, c.width)),
                None => Err(CoreError::Data(format!("column {name} is not f32"))),
            },
            None => Err(CoreError::Data(format!("missing column {name}"))),
        }
    }

    /// Borrows a token column.
    pub fn tokens(&self, name: &str) -> Result<(&[u32], usize)> {
        match self.columns.get(name) {
            Some(c) => match c.as_tokens() {
                Some(data) => Ok((data, c.width)),
                None => Err(CoreError::Data(format!("column {name} is not tokens"))),
            },
            None => Err(CoreError::Data(format!("missing column {name}"))),
        }
    }

    /// Rows `[start, end)` as a new batch of views sharing this batch's
    /// buffers, column names and metadata (no payload copies).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn select(&self, start: usize, end: usize) -> DataProto {
        assert!(start <= end && end <= self.rows, "select range out of bounds");
        let mut out = DataProto::with_rows(end - start);
        out.row_offset = self.row_offset;
        out.src_device = self.src_device;
        out.meta = self.meta.clone();
        // One insert at a time: `collect` would stage the entries in a
        // `Vec` first, a second allocation per view.
        for (k, v) in &self.columns {
            out.columns.insert(k.clone(), v.slice_rows(start, end));
        }
        out
    }

    /// Splits into `n` chunks whose sizes differ by at most one row
    /// (earlier chunks get the remainder). Chunks are views — no
    /// payload is copied.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn chunk(&self, n: usize) -> Vec<DataProto> {
        assert!(n > 0, "chunk count must be positive");
        let base = self.rows / n;
        let rem = self.rows % n;
        let mut out = Vec::with_capacity(n);
        let mut start = 0;
        for i in 0..n {
            let size = base + usize::from(i < rem);
            out.push(self.select(start, start + size));
            start += size;
        }
        out
    }

    /// Concatenates batches row-wise. Columns must agree in name, type,
    /// and width; metadata, the row offset and the source device are
    /// taken from the first batch. When the parts are contiguous views
    /// over shared buffers (a `chunk` round-trip), this is zero-copy.
    pub fn concat(parts: &[DataProto]) -> Result<DataProto> {
        let Some(first) = parts.first() else {
            return Ok(DataProto::empty());
        };
        for p in &parts[1..] {
            if !p.columns.keys().eq(first.columns.keys()) {
                return Err(CoreError::Data(format!(
                    "concat column mismatch: {:?} vs {:?}",
                    first.column_names(),
                    p.column_names()
                )));
            }
        }
        let mut out = DataProto::with_rows(parts.iter().map(|p| p.rows).sum());
        out.row_offset = first.row_offset;
        out.src_device = first.src_device;
        out.meta = first.meta.clone();
        let mut cols: Vec<&Column> = Vec::with_capacity(parts.len());
        for name in first.columns.keys() {
            cols.clear();
            cols.extend(parts.iter().map(|p| &p.columns[name]));
            out.columns.insert(name.clone(), Column::concat_parts(&cols)?);
        }
        Ok(out)
    }

    /// Merges `other`'s columns into `self` (same row count required);
    /// existing columns are overwritten, metadata is merged, and
    /// `other`'s row offset and source device replace this one's where it
    /// has them.
    pub fn union(&mut self, other: DataProto) -> Result<&mut Self> {
        if other.rows != self.rows && !other.columns.is_empty() {
            return Err(CoreError::Data(format!(
                "union row mismatch: {} vs {}",
                self.rows, other.rows
            )));
        }
        for (k, v) in other.columns {
            self.columns.insert(k, v);
        }
        if other.row_offset.is_some() {
            self.row_offset = other.row_offset;
        }
        if other.src_device.is_some() {
            self.src_device = other.src_device;
        }
        self.meta.merge(other.meta);
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: usize) -> DataProto {
        let mut d = DataProto::with_rows(rows);
        d.insert_f32("x", (0..rows * 2).map(|v| v as f32).collect(), 2);
        d.insert_tokens("ids", (0..rows as u32 * 3).collect(), 3);
        d
    }

    #[test]
    fn insert_and_read_back() {
        let d = sample(4);
        let (x, w) = d.f32("x").unwrap();
        assert_eq!(w, 2);
        assert_eq!(x.len(), 8);
        let (ids, iw) = d.tokens("ids").unwrap();
        assert_eq!(iw, 3);
        assert_eq!(ids[11], 11);
        assert!(d.f32("ids").is_err());
        assert!(d.f32("missing").is_err());
        assert_eq!(d.bytes(), 8 * 4 + 12 * 4);
    }

    #[test]
    fn chunk_sizes_are_balanced() {
        let d = sample(10);
        let chunks = d.chunk(4);
        let sizes: Vec<usize> = chunks.iter().map(|c| c.rows()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    fn chunk_then_concat_is_identity() {
        let d = sample(7);
        for n in 1..=7 {
            let rt = DataProto::concat(&d.chunk(n)).unwrap();
            assert_eq!(rt, d, "chunk({n}) ∘ concat must round-trip");
        }
    }

    #[test]
    fn chunk_and_round_trip_are_zero_copy() {
        let d = sample(64);
        let before = physical_copy_bytes();
        let chunks = d.chunk(8);
        let rt = DataProto::concat(&chunks).unwrap();
        assert_eq!(rt, d);
        assert_eq!(
            physical_copy_bytes(),
            before,
            "chunk ∘ concat of contiguous views must not copy payload"
        );
    }

    #[test]
    fn concat_of_unrelated_batches_counts_copied_bytes() {
        let a = sample(3);
        let b = sample(2);
        let before = physical_copy_bytes();
        let joined = DataProto::concat(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(joined.rows(), 5);
        assert_eq!(physical_copy_bytes() - before, (a.bytes() + b.bytes()) as u64);
    }

    #[test]
    fn clone_shares_buffers() {
        let d = sample(1000);
        let before = physical_copy_bytes();
        let c = d.clone();
        let s = d.select(10, 500);
        assert_eq!(c, d);
        assert_eq!(s.rows(), 490);
        assert_eq!(physical_copy_bytes(), before, "clone/select must be view operations");
    }

    #[test]
    fn chunks_never_alias_mutations() {
        let d = sample(8);
        let mut chunks = d.chunk(2);
        // "Mutate" chunk 0 by replacing a column wholesale (columns are
        // immutable behind Arc — replacement is the only write path).
        let rows0 = chunks[0].rows();
        chunks[0].insert_f32("x", vec![99.0; rows0 * 2], 2);
        let (x1, _) = chunks[1].f32("x").unwrap();
        let (orig, _) = d.f32("x").unwrap();
        assert_eq!(x1, &orig[rows0 * 2..], "sibling chunk must see the original data");
    }

    #[test]
    fn chunk_meta_never_aliases_mutations() {
        let mut d = sample(8);
        d.meta.insert("tag".into(), "parent".into());
        let mut chunks = d.chunk(4);
        chunks[1].meta.insert("tag".into(), "mine".into());
        chunks[2].meta.insert("extra".into(), "1".into());
        chunks[3].meta.remove("tag");
        assert_eq!(chunks[1].meta["tag"], "mine");
        assert_eq!(chunks[0].meta["tag"], "parent", "sibling chunk must see the original meta");
        assert!(!chunks[0].meta.contains_key("extra"));
        assert!(!chunks[3].meta.contains_key("tag"));
        assert_eq!(d.meta.len(), 1);
        assert_eq!(d.meta["tag"], "parent", "the parent must keep its meta");
    }

    #[test]
    fn row_offset_follows_the_meta_rules() {
        // The row offset and the source device follow one set of rules.
        type Stamp = (fn(&DataProto) -> Option<usize>, fn(&mut DataProto, Option<usize>));
        let stamps: [Stamp; 2] = [
            (DataProto::row_offset, |d, v| {
                d.set_row_offset(v);
            }),
            (DataProto::src_device, DataProto::set_src_device),
        ];
        for (get, set) in stamps {
            let mut d = sample(6);
            set(&mut d, Some(10));
            assert_eq!(get(&d.select(2, 4)), Some(10), "select copies the stamp");
            assert_eq!(get(&d.chunk(3)[2]), Some(10), "so does chunk");
            assert_eq!(d.clone(), d);
            let mut other = d.clone();
            set(&mut other, None);
            assert_ne!(other, d, "equality compares the stamp");
            let parts = [d.select(0, 3), other.select(3, 6)];
            assert_eq!(get(&DataProto::concat(&parts).unwrap()), Some(10), "first part's");
            let mut u = d.clone();
            u.union(DataProto::with_rows(6)).unwrap();
            assert_eq!(get(&u), Some(10), "an unstamped union keeps the stamp");
            let mut stamped = DataProto::with_rows(6);
            set(&mut stamped, Some(3));
            u.union(stamped).unwrap();
            assert_eq!(get(&u), Some(3), "a stamped union replaces it");
        }
    }

    #[test]
    fn select_extracts_rows() {
        let d = sample(5);
        let s = d.select(1, 3);
        assert_eq!(s.rows(), 2);
        let (x, _) = s.f32("x").unwrap();
        assert_eq!(x, &[2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn union_merges_columns() {
        let mut d = sample(3);
        let mut e = DataProto::with_rows(3);
        e.insert_f32("y", vec![9.0; 3], 1);
        e.meta.insert("tag".into(), "v".into());
        d.union(e).unwrap();
        assert!(d.has("y") && d.has("x"));
        assert_eq!(d.meta.get("tag").map(String::as_str), Some("v"));
        let bad = DataProto::with_rows(2);
        let mut bad2 = bad.clone();
        bad2.insert_f32("z", vec![0.0; 2], 1);
        assert!(d.union(bad2).is_err());
    }

    #[test]
    fn concat_rejects_mismatched_columns() {
        let a = sample(2);
        let mut b = DataProto::with_rows(2);
        b.insert_f32("other", vec![0.0; 2], 1);
        assert!(DataProto::concat(&[a, b]).is_err());
    }

    #[test]
    fn empty_concat_is_empty() {
        let out = DataProto::concat(&[]).unwrap();
        assert_eq!(out.rows(), 0);
    }
}
